// The xplaind wire protocol: a server::Service behind a newline-delimited
// JSON request/event stream (tools/xplaind.cpp serves it on stdin/stdout;
// tools/xplain_client.py is the matching client; the README's "Explanation
// as a service" section documents the protocol).
//
// One request per input line, one or more events per output line:
//
//   {"op":"submit","id":<any>,"spec":{...}}
//       -> {"event":"accepted","id":...,"jobs":N}
//       -> {"event":"job","id":...,"cached":bool,"job":{<JobSummary>}}  xN
//       -> {"event":"done","id":...,"summary":{...},"stats":{...}}
//   {"op":"stats"}     -> {"event":"stats", ...cumulative counters...}
//   {"op":"drain"}     -> {"event":"drained"}   (intake stays closed)
//   {"op":"shutdown"}  -> {"event":"bye"}       (graceful; also on EOF)
//
// Stats counters are decimal strings (exact past 2^53 — see stats_json).
// A line that is not a JSON object (malformed, or nested deeper than the
// parser accepts), is longer than kMaxRequestBytes, holds an integer field
// that is fractional or out of its type's range, or asks for a grid of
// more than kMaxGridJobs jobs gets an error event and the loop goes on;
// nothing from such a line is enqueued or cached.
//
// Requests are processed sequentially (the job-level parallelism lives in
// the service's resident worker threads, sized by XPLAIN_WORKERS or one per
// hardware thread); "id" is echoed verbatim so clients can correlate.
//
// The spec object mirrors xplain::ExperimentSpec: cases (array of registry
// names), scenarios (array of {kind,size,capacity,waxman_alpha,waxman_beta,
// seed,failed_links,capacity_degradation} — the shared scenario/spec_json.h
// codec), seed, reseed_jobs, run_generalizer, normalize_gap, options
// covering every result-bearing PipelineOptions knob (min_gap, subspace.*,
// subspace.tree.*, subspace.significance.*, explain.*), and
// option_variants (array of options objects, each an overlay on the base
// options; the grid crosses them innermost — labels gain "#o<i>").  64-bit
// seeds are accepted as JSON numbers or decimal strings (numbers lose
// precision above 2^53 — use strings for salted seeds).
#pragma once

#include <cstddef>
#include <iosfwd>

#include "server/service.h"

namespace xplain::server {

/// Longest request line serve() accepts.  Bytes past it are discarded as
/// they arrive (the line is never held whole) and the line is answered
/// with one error event.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/// Most jobs one submit request may ask for (cases x scenarios x
/// option_variants).  A bigger grid is answered with one error event
/// before anything is expanded, enqueued or cached.
inline constexpr std::size_t kMaxGridJobs = 4096;

/// Answers requests read from `in` with events written to `out`, one line
/// each, until EOF or a shutdown request.  Leaves the service running (the
/// caller shuts it down).  Job events are written from worker threads while
/// this thread blocks in Service::wait, so `out` has one writer at a time.
void serve(Service& service, std::istream& in, std::ostream& out);

}  // namespace xplain::server
