// Machine-readable bench reporting.
//
// Every bench_* binary declares one BenchReport at the top of main(); on
// destruction it writes BENCH_<name>.json next to the working directory
// with the end-to-end wall time and the LP solver work the run triggered:
// one key per solver::kLpCounterFields entry (lp_solves, lp_iterations,
// ...).  CI uploads these as artifacts, giving the repo a perf trajectory
// instead of eyeballed logs.
#pragma once

#include <string>

namespace xplain::tools {

class BenchReport {
 public:
  /// `name` names the output file: BENCH_<name>.json.
  explicit BenchReport(std::string name);
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Attaches an extra numeric datum (e.g. a bench-specific count).
  void metric(const std::string& key, double value);

  /// Attaches a pre-serialized JSON value verbatim (e.g. an
  /// xplain::ExperimentResult::to_json() document), making the experiment's
  /// structured output part of the bench's machine-readable report.
  void raw(const std::string& key, std::string json_value);

  /// Writes the JSON now (also called by the destructor; idempotent).
  void write();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace xplain::tools
