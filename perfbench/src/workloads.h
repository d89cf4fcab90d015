// Seed-driven workload generators.  Every generator is a pure function of
// the workload seed (and a round index): the same seed yields byte-identical
// grids, request streams and fuzzer options.  The program receives only the
// generated specs and requests.
//
// Each workload keeps a fixed *structure* (which cases, which topology
// kinds and sizes, how popularity ranks map onto them) and lets the seed
// draw the instances inside it (instance seeds, Waxman draws, the Zipf
// request sequence, fuzzer seeds).  Runs with different seeds then do
// comparable amounts of work, so their figures can be compared.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "search/fuzzer.h"
#include "search/mutator.h"

namespace perfbench {

/// Every worker-count setting the benchmark pins.  Compute threads never
/// exceed nproc: the benchmark refuses to run otherwise.
struct Settings {
  int engine_workers = 2;   // ExperimentSpec::workers (study_sweep)
  int fuzz_workers = 2;     // FuzzerOptions::workers (fuzz_search)
  // XPLAIN_WORKERS for xplaind and ServiceOptions::workers for the replay.
  // One pool worker keeps cache insert order, and with it the LRU counters,
  // exactly repeatable for a seed.
  int service_workers = 1;
  int explain_workers = 1;       // PipelineOptions::explain.workers
  int significance_workers = 1;  // ...subspace.significance.workers

  /// Peak compute threads of the busiest workload: outer pool times the
  /// widest nested pool.
  int compute_threads() const;
};

/// The five registered cases every workload draws from.
const std::vector<std::string>& all_cases();

/// The trimmed per-job pipeline options study_sweep and service_stream use
/// (one subspace, reduced sampling budgets, explainer on).
xplain::PipelineOptions trimmed_options(const Settings& s);

// --- study_sweep ---

/// One round: all five cases x the scenario cells line n4/n6, star n5/n8,
/// waxman n6/n8, fat_tree k4; the seed draws each cell's instance seed.
xplain::ExperimentSpec study_grid(std::uint64_t seed, int round,
                                  const Settings& s);

// --- service_stream ---

struct ServiceWorkload {
  /// The working set: one submit spec per popularity rank (rank 0 most
  /// popular), each 1 case x 1-2 scenarios.
  std::vector<xplain::ExperimentSpec> items;
  /// Working-set index of each request, in stream order.
  std::vector<int> stream;
  /// Every aligned block of this many requests holds each entry equally
  /// often (its Zipf share); only the order inside a block is drawn.
  int stream_block = 0;
  /// The first `prep_requests` requests build the journal the daemon
  /// starts from; timing starts at the next one.
  int prep_requests = 0;
  /// xplaind --cache-max-bytes: below the working set's size.
  std::size_t cache_max_bytes = 0;
  /// Total jobs across the working set.
  int working_set_jobs = 0;
};
ServiceWorkload service_workload(std::uint64_t seed, const Settings& s);

/// The xplaind request line for `spec` (no trailing newline).
std::string submit_line(const xplain::ExperimentSpec& spec, long id);

// --- fuzz_search ---

/// Fuzzer options for one round: seed derived from (seed, round), fixed
/// eval budget, pinned workers.
xplain::search::FuzzerOptions fuzz_options(std::uint64_t seed, int round,
                                           const Settings& s);

/// Empty when `spec` lies inside `limits` (the fuzzer's mutation box),
/// otherwise the reason it does not.
std::string check_limits(const xplain::scenario::ScenarioSpec& spec,
                         const xplain::search::MutatorLimits& limits = {});

}  // namespace perfbench
