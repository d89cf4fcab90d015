// Spans, self time and percentiles for the benchmark driver.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer of the program (no program-internal tracing).  They are kept in
// memory and written out when the run ends.  A layer's self time is the
// sum over its spans of the span's duration minus the part of that
// interval its child spans cover (children may nest and overlap: two
// Engine workers run jobs side by side inside one grid span).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  const char* name = "";  // static layer name, e.g. "evaluator.gap"
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;  // index into the span list; -1 = root
  int op = -1;      // request / job id the span belongs to
  std::uint64_t thread = 0;
};

/// An append-only span store.  add() is thread-safe; callers on hot paths
/// batch their spans locally and hand them over with add_all().
class SpanLog {
 public:
  int add(const Span& s);
  void add_all(std::vector<Span>&& spans);
  std::vector<Span> take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A small per-thread tag (1, 2, ... in order of first use).
std::uint64_t thread_tag();

/// Gives every parentless span named in `children` the innermost span named
/// in `parents` whose interval contains it — on the same thread when
/// `same_thread`, on any thread otherwise — and copies that parent's op id.
void link_parents(std::vector<Span>& spans,
                  const std::vector<std::string>& children,
                  const std::vector<std::string>& parents, bool same_thread);

struct LayerTime {
  long spans = 0;
  double total_ms = 0.0;  // summed durations
  double self_ms = 0.0;   // summed durations minus child coverage
};

/// Per span name: count, summed duration and self time.
std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// The highest of the candidate percentiles {99.9, 99, 95, 90, 75, 50}
/// that has at least `min_beyond` samples ranked above it; p = 0 when none
/// does.
struct TailPercentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};
TailPercentile tail_percentile(const std::vector<double>& v,
                               std::size_t min_beyond = 10);

/// Writes the span list as tab-separated lines (name, start_us, end_us,
/// parent, op, thread).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
