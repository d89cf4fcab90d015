// Decorated cases for the traced runs: a bench-local CaseRegistry whose
// factories build the real case through the process registry and wrap it,
// so the benchmark sees every case build, every GapEvaluator::gap call and
// every FlowOracle call from the outside — through the public HeuristicCase
// interface only.  The wrappers forward everything and change no result
// (the traced run checks that against the untraced one).
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "trace.h"
#include "xplain/case.h"

namespace perfbench {

struct LayerCounts {
  std::atomic<long> case_builds{0};
  std::atomic<long> gap_calls{0};
  std::atomic<long> oracle_calls{0};
};

class Decorator {
 public:
  explicit Decorator(SpanLog& log) : log_(log) {}
  Decorator(const Decorator&) = delete;
  Decorator& operator=(const Decorator&) = delete;

  /// Registers `prefix + name` in `reg` for every name: a factory that
  /// builds `name` from the process registry (xplain::registry()) and
  /// wraps it.  Returns false when a key was already taken.
  bool decorate(xplain::CaseRegistry& reg,
                const std::vector<std::string>& names,
                const std::string& prefix = "");

  SpanLog& log() { return log_; }
  LayerCounts& counts() { return counts_; }

 private:
  SpanLog& log_;
  LayerCounts counts_;
};

}  // namespace perfbench
