// Shared worker-pool helper for the sampling hot loops.
//
// The contract every parallel stage in XPlain follows (xplain::Engine's
// grid runs included): work is split into index-addressed slots, each slot's
// randomness comes from a seed derived purely from (base seed, slot index),
// and slot results land in slot-indexed storage or are merged with exact
// (integer / order-independent) arithmetic.  Under that contract the output
// is bitwise identical for ANY worker count — parallelism changes only the
// wall clock, never the answer.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace xplain::util {

/// Thread-inclusive accumulator hook.  A layer that keeps thread-local
/// tallies (solver's LP counters) registers a pair of functions at
/// static-init time: when a pool worker finishes its share of a
/// parallel_chunks call, `capture` runs ON that worker (read and RESET its
/// thread-local tallies into the payload); after the join, `absorb` runs on
/// the spawning thread once per worker payload.  Tallies thereby flow up
/// the spawn tree instead of into a process-wide bucket, which is what
/// makes per-region counter deltas exact even when sibling regions run
/// concurrently.  util cannot depend on the registering layer, hence the
/// inversion; one registrant (re-registration replaces it).
using PoolCapture = void (*)(std::vector<long>&);
using PoolAbsorb = void (*)(const std::vector<long>&);
void register_pool_accumulator(PoolCapture capture, PoolAbsorb absorb);

/// Resolves a worker-count option: n <= 0 means "one per hardware thread",
/// unless the XPLAIN_WORKERS environment variable holds a positive integer,
/// which then overrides the hardware default (an explicit positive argument
/// always wins over the environment).
int resolve_workers(int workers);

/// Runs fn(begin, end, worker) over dynamic chunks of [0, n) on `workers`
/// threads (after resolve_workers; 1 or tiny n degenerates to an inline
/// call).  `worker` is in [0, workers) — index per-worker accumulators with
/// it.  Exceptions thrown by fn propagate to the caller (first one wins).
void parallel_chunks(
    std::size_t n, int workers,
    const std::function<void(std::size_t, std::size_t, int)>& fn);

}  // namespace xplain::util
