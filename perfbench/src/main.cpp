// perfbench_driver — the repo benchmark's driver.
//
//   perfbench_driver --workload study_sweep|service_stream|fuzz_search
//                    --seed N --seconds S --trace 0|1
//                    --xplaind PATH [--out-dir DIR] [--commit ID]
//   perfbench_driver --selftest
//
// It drives the program only through public entry points: Engine::run,
// server::Service, the built xplaind over stdin/stdout, search::run_fuzzer,
// solver::lp_counters and generalize::generalize_batch.  With --trace 0 it
// measures the end-to-end metrics; with --trace 1 it runs a fixed, seed-
// determined share of the workload twice — untraced, then traced through
// decorated cases — checks that both give identical results, and reports
// the per-layer metrics.  The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A failed output check counts as a failed operation and makes the exit
// code non-zero.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "decorate.h"
#include "engine/engine.h"
#include "generalize/generalizer.h"
#include "search/fuzzer.h"
#include "selftest.h"
#include "server/service.h"
#include "solver/lp.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using xplain::ExperimentSpec;
using xplain::JobSummary;
using xplain::util::Json;

// Rounds / runs / requests whose results are exact for a seed: the quality
// metric is taken over them, and --trace 1 runs exactly them (twice).
constexpr int kStudyFixedRounds = 3;
constexpr int kFuzzFixedRuns = 8;
// The untimed quality count of fuzz_search sums more runs than the traced
// run repeats: the buckets one run discovers vary a lot between seeds.
constexpr int kFuzzQualityRuns = 24;
constexpr int kServiceFixedRequests = 150;
constexpr int kSetupSamples = 21;
constexpr int kReplyTimeoutMs = 60000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string xplaind;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  bool selftest = false;
  bool setup_probe = false;
  std::string fake_daemon;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<Metric> layer_times;  // traced: times only this workload has
  std::vector<std::string> notes;   // sample counts and derived figures
  std::vector<Span> spans;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& s) { notes.push_back(s); }
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double peak_rss_self_mb() { return peak_rss_mb(::getpid()); }

/// JobSummary JSON with the wall-clock field removed: two computations of
/// the same job must agree on everything else.
std::string scrub_wall(std::string json) {
  const std::string key = "\"wall_seconds\":";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at)) {
    std::size_t end = at + key.size();
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    json.erase(at + key.size(), end - at - key.size());
    at += key.size();
  }
  return json;
}

std::string scrubbed_summary(xplain::ExperimentSummary s) {
  s.wall_seconds = 0.0;
  for (JobSummary& j : s.jobs) j.wall_seconds = 0.0;
  return s.to_json(0);
}

struct LpDelta {
  xplain::solver::LpCounters start = xplain::solver::lp_counters();
  xplain::solver::LpCounters get() const {
    const xplain::solver::LpCounters now = xplain::solver::lp_counters();
    xplain::solver::LpCounters d;
    d.solves = now.solves - start.solves;
    d.iterations = now.iterations - start.iterations;
    d.warm_solves = now.warm_solves - start.warm_solves;
    d.columns_priced = now.columns_priced - start.columns_priced;
    d.candidate_refills = now.candidate_refills - start.candidate_refills;
    return d;
  }
};

bool same_lp(const xplain::solver::LpCounters& a,
             const xplain::solver::LpCounters& b) {
  return a.solves == b.solves && a.iterations == b.iterations &&
         a.warm_solves == b.warm_solves &&
         a.columns_priced == b.columns_priced &&
         a.candidate_refills == b.candidate_refills;
}

/// Tracing overhead from an untraced, traced, untraced sequence of passes:
/// comparing with the mean of the untraced rates cancels a steady drift of
/// the machine's speed.
double overhead_share(double plain_before, double traced, double plain_after) {
  return 1.0 - traced / ((plain_before + plain_after) / 2);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

/// Setup time of an in-process workload: spawn this binary in setup-probe
/// mode, which prepares the workload's inputs and prints "ready".  -1 when
/// a probe fails.
double probe_setup_seconds(const Args& a) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    Child c;
    const std::int64_t t0 = now_ns();
    if (!c.start({self_exe(), "--setup-probe", "--workload", a.workload,
                  "--seed", std::to_string(a.seed)}))
      return -1.0;
    std::string line;
    if (c.read_line(&line, kReplyTimeoutMs) != Child::Read::kLine ||
        line != "ready")
      return -1.0;
    samples.push_back((now_ns() - t0) / 1e9);
    c.wait(kReplyTimeoutMs);
  }
  return median(samples);
}

void add_lp_metrics(Outcome& out, const xplain::solver::LpCounters& lp,
                    long jobs, double gap_ms) {
  out.metric("lp.solves", lp.solves, "count");
  out.metric("lp.iterations", lp.iterations, "count");
  out.metric("lp.warm_solves", lp.warm_solves, "count");
  out.metric("lp.columns_priced", lp.columns_priced, "count");
  out.metric("lp.iterations_per_solve",
             lp.solves ? double(lp.iterations) / lp.solves : 0.0, "ratio");
  out.metric("lp.solves_per_job", jobs ? double(lp.solves) / jobs : 0.0,
             "ratio");
  // Derived: evaluator self time spread over the solves it triggered.
  out.metric("lp.us_per_solve", lp.solves ? gap_ms * 1e3 / lp.solves : 0.0,
             "us");
}

/// Layer metrics from the spans' self times; returns the evaluator's self
/// time in ms.
double add_span_metrics(Outcome& out,
                        const std::map<std::string, LayerTime>& st,
                        const LayerCounts& counts) {
  const auto get = [&](const char* n) {
    const auto it = st.find(n);
    return it == st.end() ? LayerTime{} : it->second;
  };
  const LayerTime gap = get("evaluator.gap");
  const LayerTime oracle = get("explain.oracle");
  const LayerTime build = get("cases.build");
  out.metric("evaluator.gap_calls", counts.gap_calls.load(), "count");
  out.metric("evaluator.gap_ms", gap.self_ms, "ms");
  out.metric("evaluator.us_per_call",
             gap.spans ? gap.self_ms * 1e3 / gap.spans : 0.0, "us");
  out.metric("explain.oracle_calls", counts.oracle_calls.load(), "count");
  out.metric("explain.oracle_ms", oracle.self_ms, "ms");
  out.metric("cases.builds", counts.case_builds.load(), "count");
  out.metric("cases.build_ms", build.self_ms, "ms");
  out.note("self time by span (name: spans, total ms, self ms):");
  for (const auto& [name, lt] : st)
    out.note("  " + name + ": " + std::to_string(lt.spans) + ", " +
             fmt(lt.total_ms) + ", " + fmt(lt.self_ms));
  out.metric("generalize.ms", get("generalize.batch").self_ms, "ms");
  return gap.self_ms;
}

// The per-layer metrics every traced run reports (BENCHMARK.json's
// per_layer list).  Counts and ratios of a layer the workload does not
// exercise read 0.  Times that only some workloads have (stage seconds,
// protocol and queue times, generalize and oracle time) are kept out of
// this list, so no time reads a constant 0: they go to the report and the
// result file's "layer_times".
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"lp.solves", "count"},
      {"lp.iterations", "count"},
      {"lp.warm_solves", "count"},
      {"lp.columns_priced", "count"},
      {"lp.iterations_per_solve", "ratio"},
      {"lp.solves_per_job", "ratio"},
      {"lp.us_per_solve", "us"},
      {"evaluator.gap_calls", "count"},
      {"evaluator.gap_ms", "ms"},
      {"evaluator.us_per_call", "us"},
      {"explain.oracle_calls", "count"},
      {"pipeline.compile_share", "ratio"},
      {"pipeline.analyze_share", "ratio"},
      {"pipeline.subspace_share", "ratio"},
      {"pipeline.explain_share", "ratio"},
      {"pipeline.significant_subspaces", "count"},
      {"cases.builds", "count"},
      {"cases.build_ms", "ms"},
      {"engine.jobs", "count"},
      {"engine.case_builds", "count"},
      {"engine.busy_share", "ratio"},
      {"generalize.observations", "count"},
      {"generalize.trends", "count"},
      {"server.cache_hit_share", "ratio"},
      {"server.cache_hits", "count"},
      {"server.cache_misses", "count"},
      {"server.cache_evictions", "count"},
      {"server.cache_inflight_waits", "count"},
      {"server.case_builds", "count"},
      {"server.replay_entries", "count"},
      {"xplaind.response_bytes", "bytes"},
      {"json.bytes", "bytes"},
      {"search.evals", "count"},
      {"search.generations", "count"},
      {"search.coverage_buckets", "count"},
      {"search.failed_jobs", "count"},
      {"search.discoveries", "count"},
      {"search.discovery_yield", "ratio"},
      {"trace_overhead_share", "ratio"},
  };
  return names;
}

// ---------------------------------------------------------------- study

struct StudyPass {
  long jobs = 0;
  int rounds = 0;
  double seconds = 0.0;
  double job_wall_s = 0.0;
  std::vector<double> job_ms;
  std::vector<double> round_rates;  // jobs per second of each round
  std::vector<std::string> summaries;  // scrubbed, one per round
  xplain::solver::LpCounters lp;
  xplain::StageTimes stages;
  int significant = 0;  // over the fixed rounds
  long case_builds = 0;
  long observations = 0;
  long trends = 0;
};

/// Runs study_sweep rounds through Engine(reg): at least `min_rounds`, and
/// until `seconds` have passed (seconds <= 0: exactly min_rounds).  With a
/// span log, records round, job and generalize spans.
StudyPass run_study(const Args& a, const Settings& set,
                    xplain::CaseRegistry& reg, int min_rounds, double seconds,
                    SpanLog* log, Outcome& out) {
  StudyPass p;
  xplain::Engine engine(reg);
  const LpDelta lp;
  const std::int64_t t0 = now_ns();
  for (int round = 0;; ++round) {
    const bool fixed = round < kStudyFixedRounds;
    if (round >= min_rounds &&
        (seconds <= 0 || (now_ns() - t0) / 1e9 >= seconds))
      break;
    const ExperimentSpec spec = study_grid(a.seed, round, set);
    std::mutex mu;
    std::vector<Span> job_spans;
    const std::int64_t r0 = now_ns();  // latency: grid start to job result
    const xplain::ExperimentResult res =
        engine.run(spec, [&](const xplain::JobResult& jr) {
          const std::int64_t t = now_ns();
          std::lock_guard<std::mutex> lock(mu);
          p.job_ms.push_back((t - r0) / 1e6);
          if (log) {
            Span s;
            s.name = "pipeline.job";
            s.end = t;
            s.start = t - static_cast<std::int64_t>(
                              jr.pipeline.wall_seconds * 1e9);
            s.op = jr.job.index;
            s.thread = thread_tag();
            job_spans.push_back(s);
          }
        });
    const std::int64_t r1 = now_ns();
    p.rounds = round + 1;
    p.round_rates.push_back(res.jobs.size() / ((r1 - r0) / 1e9));
    for (const xplain::JobResult& jr : res.jobs) {
      out.check(jr.ok, "study job " + jr.job.label() + " failed: " + jr.error);
      ++p.jobs;
      p.job_wall_s += jr.pipeline.wall_seconds;
      p.stages += jr.pipeline.stages;
      if (!fixed || !jr.ok) continue;
      for (const auto& sub : jr.pipeline.subspaces)
        p.significant += sub.significant;
    }
    p.case_builds += res.case_builds;
    p.observations += static_cast<long>(res.trends.observations.size());
    p.trends += static_cast<long>(res.trends.predicates.size());
    if (fixed) p.summaries.push_back(scrubbed_summary(res.summary()));
    if (log) {
      Span op;
      op.name = "engine.run";
      op.start = r0;
      op.end = r1;
      op.op = round;
      op.thread = thread_tag();
      const int op_index = log->add(op);
      for (Span& s : job_spans) s.parent = op_index;
      log->add_all(std::move(job_spans));
      // Type-3 mined again on the collected results, the way the Engine
      // does it: the trends must match the Engine's.
      std::vector<xplain::PipelineResult> slim;
      for (const xplain::JobResult& jr : res.jobs) {
        if (!jr.ok) continue;
        xplain::PipelineResult r;
        r.features = jr.pipeline.features;
        r.gap_scale = jr.pipeline.gap_scale;
        r.best_gap_found =
            std::max(jr.pipeline.max_gap(), jr.pipeline.best_gap_found);
        slim.push_back(std::move(r));
      }
      Span g;
      g.name = "generalize.batch";
      g.op = round;
      g.thread = thread_tag();
      g.start = now_ns();
      const xplain::generalize::GeneralizerResult mined =
          xplain::generalize::generalize_batch(slim, spec.grammar,
                                               spec.normalize_gap);
      g.end = now_ns();
      log->add(g);
      out.check(xplain::make_trend_summaries(mined) ==
                    xplain::make_trend_summaries(res.trends),
                "generalize_batch on the collected results differs from the "
                "Engine's trends in round " +
                    std::to_string(round));
    }
  }
  p.seconds = (now_ns() - t0) / 1e9;
  p.lp = lp.get();
  return p;
}

void study_workload(const Args& a, const Settings& set, Outcome& out) {
  if (a.trace == 0) {
    const double setup = probe_setup_seconds(a);
    out.check(setup > 0, "the set-up probe failed");
    const StudyPass p = run_study(a, set, xplain::registry(),
                                  kStudyFixedRounds, a.seconds, nullptr, out);
    const TailPercentile tail = tail_percentile(p.job_ms);
    out.metric("setup_s", setup, "s");
    // The median of the rounds' rates: a burst of host load that stalls a
    // few rounds moves a sum over the window but not the median.
    out.metric("jobs_per_s", median(p.round_rates), "jobs/s");
    out.metric("latency_p50_ms", percentile(p.job_ms, 50), "ms");
    out.metric("latency_p90_ms", percentile(p.job_ms, 90), "ms");
    out.metric("peak_rss_mb", peak_rss_self_mb(), "MB");
    out.metric("significant_findings", p.significant, "count");
    out.note("latency = Engine::run start to the job's result callback; " +
             std::to_string(p.job_ms.size()) + " jobs in " +
             std::to_string(p.rounds) + " rounds over " + fmt(p.seconds) +
             " s (" + fmt(p.jobs / p.seconds) +
             " jobs/s overall; jobs_per_s is the median of the rounds' "
             "rates); highest supported tail: p" + fmt(tail.p) + " = " +
             fmt(tail.value) + " ms");
    out.note("significant_findings = significant subspaces over the first " +
             std::to_string(kStudyFixedRounds) + " rounds (exact for the seed)");
    out.note("setup_s = median of " + std::to_string(kSetupSamples) +
             " process spawns to ready");
    return;
  }
  // Traced run: the fixed rounds untraced, traced, and untraced again.
  const StudyPass plain = run_study(a, set, xplain::registry(),
                                    kStudyFixedRounds, 0, nullptr, out);
  SpanLog log;
  Decorator deco(log);
  xplain::CaseRegistry dreg;
  deco.decorate(dreg, all_cases());
  const StudyPass traced =
      run_study(a, set, dreg, kStudyFixedRounds, 0, &log, out);
  const StudyPass plain2 = run_study(a, set, xplain::registry(),
                                     kStudyFixedRounds, 0, nullptr, out);
  for (const StudyPass* other : {&traced, &plain2}) {
    out.check(other->summaries == plain.summaries,
              "study: summary JSON differs between passes over the same "
              "rounds");
    out.check(same_lp(plain.lp, other->lp),
              "study: LP counters differ between passes over the same "
              "rounds");
  }

  std::vector<Span> spans = log.take();
  link_parents(spans, {"evaluator.gap", "explain.oracle"}, {"pipeline.job"},
               true);
  link_parents(spans, {"cases.build", "evaluator.gap", "explain.oracle"},
               {"engine.run"}, false);
  add_lp_metrics(out, traced.lp, traced.jobs,
                 add_span_metrics(out, self_times(spans), deco.counts()));
  const double wall = traced.job_wall_s > 0 ? traced.job_wall_s : 1.0;
  out.metric("pipeline.compile_s", traced.stages.compile_seconds, "s");
  out.metric("pipeline.analyze_s", traced.stages.analyze_seconds, "s");
  out.metric("pipeline.subspace_s", traced.stages.subspace_seconds, "s");
  out.metric("pipeline.explain_s", traced.stages.explain_seconds, "s");
  out.metric("pipeline.compile_share", traced.stages.compile_seconds / wall,
             "ratio");
  out.metric("pipeline.analyze_share", traced.stages.analyze_seconds / wall,
             "ratio");
  out.metric("pipeline.subspace_share", traced.stages.subspace_seconds / wall,
             "ratio");
  out.metric("pipeline.explain_share", traced.stages.explain_seconds / wall,
             "ratio");
  out.metric("pipeline.significant_subspaces", traced.significant, "count");
  out.metric("engine.jobs", traced.jobs, "count");
  out.metric("engine.case_builds", traced.case_builds, "count");
  out.metric("engine.busy_share",
             traced.job_wall_s / (set.engine_workers * traced.seconds),
             "ratio");
  out.metric("generalize.observations", traced.observations, "count");
  out.metric("generalize.trends", traced.trends, "count");
  out.metric("trace_overhead_share",
             overhead_share(plain.jobs / plain.seconds,
                            traced.jobs / traced.seconds,
                            plain2.jobs / plain2.seconds),
             "ratio");
  out.note("traced: " + std::to_string(traced.jobs) + " jobs in " +
           std::to_string(traced.rounds) + " rounds, " + fmt(traced.seconds) +
           " s traced vs " + fmt(plain.seconds) + " s and " +
           fmt(plain2.seconds) + " s untraced");
  out.spans = std::move(spans);
}

// ---------------------------------------------------------------- fuzz

struct FuzzPass {
  long evals = 0;
  int runs = 0;
  double seconds = 0.0;
  std::vector<double> run_ms;
  std::vector<double> run_rates;  // evals per second of each run
  std::vector<std::string> archives;  // first min_runs runs, prefix removed
  long buckets = 0;                   // over the first min_runs runs
  xplain::search::FuzzStats stats;    // summed
  long discoveries = 0;
  xplain::solver::LpCounters lp;
};

std::string strip_prefix(std::string s, const std::string& prefix) {
  if (prefix.empty()) return s;
  for (std::size_t at = s.find(prefix); at != std::string::npos;
       at = s.find(prefix, at))
    s.erase(at, prefix.size());
  return s;
}

FuzzPass run_fuzz(const Args& a, const Settings& set, int min_runs,
                  double seconds, const std::string& case_prefix,
                  SpanLog* log, Outcome& out) {
  FuzzPass p;
  const LpDelta lp;
  const std::int64_t t0 = now_ns();
  for (int run = 0;; ++run) {
    if (run >= min_runs && (seconds <= 0 || (now_ns() - t0) / 1e9 >= seconds))
      break;
    xplain::search::FuzzerOptions o = fuzz_options(a.seed, run, set);
    for (std::string& c : o.cases) c = case_prefix + c;
    const std::int64_t r0 = now_ns();
    const xplain::search::FuzzResult res = xplain::search::run_fuzzer(o);
    const std::int64_t r1 = now_ns();
    if (log) {
      Span s;
      s.name = "search.run_fuzzer";
      s.start = r0;
      s.end = r1;
      s.op = run;
      s.thread = thread_tag();
      log->add(s);
    }
    p.runs = run + 1;
    p.run_ms.push_back((r1 - r0) / 1e6);
    p.run_rates.push_back(res.stats.evals / ((r1 - r0) / 1e9));
    p.evals += res.stats.evals;
    out.attempted += res.stats.evals;
    for (int i = 0; i < res.stats.failed_jobs; ++i)
      out.fail("fuzz run " + std::to_string(run) + ": a probe job failed");
    p.stats.generations += res.stats.generations;
    p.stats.failed_jobs += res.stats.failed_jobs;
    p.stats.coverage.buckets += res.stats.coverage.buckets;
    p.discoveries += res.archive.size();
    if (run < min_runs) {
      p.buckets += res.archive.size();  // one entry per (case, bucket)
      p.archives.push_back(strip_prefix(res.archive.to_json(0), case_prefix));
    }
  }
  p.seconds = (now_ns() - t0) / 1e9;
  p.lp = lp.get();
  return p;
}

void fuzz_workload(const Args& a, const Settings& set, Outcome& out) {
  if (a.trace == 0) {
    const double setup = probe_setup_seconds(a);
    out.check(setup > 0, "the set-up probe failed");
    // The same seed must give the identical archive: run 0 once before the
    // timed window (which also warms the process up) and compare it with
    // run 0 inside the window.
    Outcome first_out;
    const FuzzPass first = run_fuzz(a, set, 1, 0, "", nullptr, first_out);
    const FuzzPass p =
        run_fuzz(a, set, kFuzzQualityRuns, a.seconds, "", nullptr, out);
    out.check(!p.archives.empty() && !first.archives.empty() &&
                  p.archives[0] == first.archives[0],
              "fuzz: the archive of run 0 differs between two runs of its "
              "seed");
    const double rss = peak_rss_self_mb();
    const TailPercentile tail = tail_percentile(p.run_ms);
    out.metric("setup_s", setup, "s");
    // The median of the runs' rates: a window holds a few dozen runs, and a
    // burst of host load that stalls one of them moves a sum over the
    // window but not the median.
    out.metric("jobs_per_s", median(p.run_rates), "jobs/s");
    out.metric("latency_p50_ms", percentile(p.run_ms, 50), "ms");
    out.metric("latency_p90_ms", percentile(p.run_ms, 90), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("significant_findings", static_cast<double>(p.buckets),
               "count");
    out.note("latency = wall time of one run_fuzzer call (" +
             std::to_string(p.run_ms.size()) + " runs, " +
             std::to_string(p.evals) + " evals over " + fmt(p.seconds) +
             " s, " + fmt(p.evals / p.seconds) +
             " evals/s overall; jobs_per_s is the median of the runs' "
             "rates); fewer than 100 samples, so p90 has fewer than 10 beyond "
             "it; highest supported tail: p" +
             fmt(tail.p));
    out.note("significant_findings = discovered buckets (archive entries) "
             "summed over the first " +
             std::to_string(kFuzzQualityRuns) + " runs (exact for the seed)");
    return;
  }
  const FuzzPass plain =
      run_fuzz(a, set, kFuzzFixedRuns, 0, "", nullptr, out);
  // run_fuzzer resolves cases in the process registry, so the decorated
  // cases go there under distinct keys; the archives are compared with the
  // key prefix removed.
  static SpanLog log;
  static Decorator deco(log);
  const std::string prefix = "traced.";
  deco.decorate(xplain::registry(), all_cases(), prefix);
  const FuzzPass traced =
      run_fuzz(a, set, kFuzzFixedRuns, 0, prefix, &log, out);
  const FuzzPass plain2 =
      run_fuzz(a, set, kFuzzFixedRuns, 0, "", nullptr, out);
  for (const FuzzPass* other : {&traced, &plain2}) {
    out.check(other->archives == plain.archives,
              "fuzz: archives differ between passes over the same runs");
    out.check(same_lp(plain.lp, other->lp),
              "fuzz: LP counters differ between passes over the same runs");
  }
  std::vector<Span> spans = log.take();
  link_parents(spans, {"cases.build", "evaluator.gap", "explain.oracle"},
               {"search.run_fuzzer"}, false);
  add_lp_metrics(out, traced.lp, traced.evals,
                 add_span_metrics(out, self_times(spans), deco.counts()));
  out.metric("engine.jobs", traced.evals, "count");
  out.metric("engine.case_builds", deco.counts().case_builds.load(), "count");
  out.metric("search.evals", traced.evals, "count");
  out.metric("search.generations", traced.stats.generations, "count");
  out.metric("search.coverage_buckets", traced.stats.coverage.buckets,
             "count");
  out.metric("search.failed_jobs", traced.stats.failed_jobs, "count");
  out.metric("search.discoveries", traced.discoveries, "count");
  out.metric("search.discovery_yield",
             traced.evals ? double(traced.discoveries) / traced.evals : 0.0,
             "ratio");
  out.metric("trace_overhead_share",
             overhead_share(plain.evals / plain.seconds,
                            traced.evals / traced.seconds,
                            plain2.evals / plain2.seconds),
             "ratio");
  out.note("traced: " + std::to_string(traced.runs) + " fuzzer runs, " +
           std::to_string(traced.evals) + " evals, " +
           std::to_string(traced.discoveries) + " discoveries; " +
           fmt(traced.seconds) + " s traced vs " + fmt(plain.seconds) +
           " s and " + fmt(plain2.seconds) +
           " s untraced; pipeline.* and engine.busy_share are not "
           "observable from outside run_fuzzer and read 0");
  out.spans = std::move(spans);
}

// ---------------------------------------------------------------- service

/// The first and the latest computed answer of every (item, job) pair.
struct Answers {
  struct Entry {
    std::string first, last;
    int first_request = 0;  // stream index that first computed it
    int significant = 0;
  };
  std::map<std::pair<int, int>, Entry> by_key;

  /// Records one answer of stream request `request`; returns "" when it is
  /// consistent, else why not.
  std::string record(int item, const std::string& job_json, bool cached,
                     int request) {
    const std::optional<Json> j = Json::parse(job_json);
    if (!j) return "unparseable job JSON";
    const Json* ok = j->find("ok");
    if (!ok || !ok->as_bool()) return "job not ok: " + job_json.substr(0, 200);
    const Json* idx = j->find("index");
    const int index = idx ? static_cast<int>(idx->as_num()) : -1;
    Entry& e = by_key[{item, index}];
    std::string& first = e.first;
    std::string& last = e.last;
    if (cached) {
      if (job_json != last)
        return "cached answer is not byte-identical to the computed one "
               "(item " + std::to_string(item) + ")";
      return {};
    }
    if (!first.empty() && scrub_wall(first) != scrub_wall(job_json))
      return "recomputed answer differs from the first (item " +
             std::to_string(item) + ")";
    if (first.empty()) {
      first = job_json;
      e.first_request = request;
      const Json* sig = j->find("significant");
      e.significant = sig ? static_cast<int>(sig->as_num()) : 0;
    }
    last = job_json;
    return {};
  }

  /// Significant subspaces over the distinct jobs first computed before
  /// stream index `end`.
  long significant_before(int end) const {
    long n = 0;
    for (const auto& [key, e] : by_key)
      if (!e.first.empty() && e.first_request < end) n += e.significant;
    return n;
  }
};

std::map<std::string, long> parse_stats(const std::string& line) {
  std::map<std::string, long> out;
  const std::optional<Json> j = Json::parse(line);
  if (!j || j->kind() != Json::Kind::kObject) return out;
  for (const char* k :
       {"cache_hits", "cache_misses", "cache_evictions", "cache_inflight_waits",
        "cache_replayed", "case_builds", "jobs_completed", "jobs_failed"}) {
    const Json* v = j->find(k);
    if (v && v->kind() == Json::Kind::kString)
      out[k] = std::strtol(v->as_str().c_str(), nullptr, 10);
  }
  return out;
}

bool copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream o(to, std::ios::binary | std::ios::trunc);
  o << in.rdbuf();
  return static_cast<bool>(o);
}

struct Daemon {
  Child child;
  double setup_s = 0.0;
  std::map<std::string, long> start_stats;
};

/// Spawns xplaind on a fresh copy of `journal` and waits for its reply to
/// a stats request: spawn to reply is the set-up time (it includes the
/// journal replay).
bool start_daemon(const Args& a, const ServiceWorkload& w,
                  const std::string& journal, const std::string& copy,
                  Daemon& d) {
  if (!copy_file(journal, copy)) return false;
  const std::int64_t t0 = now_ns();
  if (!d.child.start({a.xplaind, "--cache-path", copy, "--cache-max-bytes",
                      std::to_string(w.cache_max_bytes)},
                     {"XPLAIN_WORKERS=" +
                      std::to_string(Settings{}.service_workers)}))
    return false;
  std::string line;
  if (!d.child.write_line("{\"op\":\"stats\"}") ||
      d.child.read_line(&line, kReplyTimeoutMs) != Child::Read::kLine)
    return false;
  d.setup_s = (now_ns() - t0) / 1e9;
  d.start_stats = parse_stats(line);
  return true;
}

std::map<std::string, long> stop_daemon(Daemon& d, double* rss_mb) {
  std::map<std::string, long> stats;
  std::string line;
  if (d.child.write_line("{\"op\":\"stats\"}") &&
      d.child.read_line(&line, kReplyTimeoutMs) == Child::Read::kLine)
    stats = parse_stats(line);
  if (rss_mb) *rss_mb = peak_rss_mb(d.child.pid());
  d.child.write_line("{\"op\":\"shutdown\"}");
  d.child.read_line(&line, kReplyTimeoutMs);
  d.child.wait(kReplyTimeoutMs);
  return stats;
}

struct StreamPass {
  int first = 0;  // stream index of the first request
  std::vector<Exchange> ex;
  std::vector<int> items;
  long jobs = 0;
  double seconds = 0.0;
};

/// Closed loop: request i of the stream is sent when request i-1 ended.
/// Runs requests [first, first + count) or, with count <= 0, until
/// `seconds` passed and at least the fixed kServiceFixedRequests ended.
StreamPass run_stream(const ServiceWorkload& w, Daemon& d, int first,
                      int count, double seconds) {
  StreamPass p;
  p.first = first;
  const std::int64_t t0 = now_ns();
  for (int i = first;; ++i) {
    const int n = i - first;
    if (count > 0 ? n >= count
                  : (n >= kServiceFixedRequests &&
                     (now_ns() - t0) / 1e9 >= seconds))
      break;
    const int item = w.stream[static_cast<std::size_t>(i) % w.stream.size()];
    p.ex.push_back(exchange(d.child, submit_line(w.items[item], i),
                            kReplyTimeoutMs));
    p.items.push_back(item);
    p.jobs += static_cast<long>(p.ex.back().job_events.size());
    if (p.ex.back().daemon_lost)
      break;  // the daemon is gone or stuck: the rest cannot be served
  }
  p.seconds = (now_ns() - t0) / 1e9;
  return p;
}

/// Output checks of one pass; returns the answers (hit/miss flag plus the
/// job JSON without wall time), request by request, for cross-pass
/// comparison.
std::vector<std::string> check_stream(const ServiceWorkload& w,
                                      const StreamPass& p, Answers& answers,
                                      Outcome& out) {
  std::vector<std::string> seen;
  for (std::size_t k = 0; k < p.ex.size(); ++k) {
    const Exchange& ex = p.ex[k];
    const int item = p.items[k];
    const std::size_t request_begin = seen.size();
    ++out.attempted;
    std::string why = ex.failed() ? "request failed: " + ex.error.substr(0, 200)
                                  : "";
    const std::size_t want = w.items[item].scenarios.size();
    if (why.empty() && ex.job_events.size() != want)
      why = "request got " + std::to_string(ex.job_events.size()) +
            " job events, expected " + std::to_string(want);
    for (const std::string& ev : ex.job_events) {
      const std::string job = job_object(ev);
      const bool cached = job_cached(ev);
      const std::string r =
          answers.record(item, job, cached, p.first + static_cast<int>(k));
      if (why.empty() && !r.empty()) why = r;
      seen.push_back(std::string(cached ? "H " : "M ") + scrub_wall(job));
    }
    // Job events arrive in completion order: sort within the request.
    std::sort(seen.begin() + static_cast<std::ptrdiff_t>(request_begin),
              seen.end());
    if (!why.empty()) out.fail(why);
  }
  return seen;
}

/// Builds the journal from the stream's first part with an in-process
/// Service (untimed).  Returns false when it could not.
bool prepare_journal(const ServiceWorkload& w, const std::string& journal,
                     Answers& answers, Outcome& out) {
  std::remove(journal.c_str());
  xplain::server::ServiceOptions so;
  so.workers = Settings{}.service_workers;
  so.cache_max_bytes = w.cache_max_bytes;
  so.cache_path = journal;
  xplain::server::Service svc(so);
  for (int i = 0; i < w.prep_requests; ++i) {
    const int item = w.stream[i];
    std::vector<std::pair<std::string, bool>> got;
    svc.run(w.items[item], [&](const JobSummary& j, bool cached) {
      got.emplace_back(j.to_json_value().dump(0), cached);
    });
    for (const auto& [json, cached] : got) {
      const std::string r = answers.record(item, json, cached, i);
      if (!r.empty()) out.fail("journal preparation: " + r);
    }
  }
  svc.shutdown();
  std::ifstream f(journal);
  return static_cast<bool>(f);
}

long stat_of(const std::map<std::string, long>& stats, const char* key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0 : it->second;
}

void service_timed(const Args& a, const ServiceWorkload& w,
                   const std::string& journal, const std::string& base,
                   Answers& answers, Outcome& out) {
  std::vector<double> setups;
  Daemon d;
  for (int i = 0; i < kSetupSamples; ++i) {
    Daemon probe;
    Daemon& target = i + 1 == kSetupSamples ? d : probe;
    const std::string copy = base + ".live" + std::to_string(i);
    const bool started = start_daemon(a, w, journal, copy, target);
    if (&target == &probe) stop_daemon(probe, nullptr);
    if (&target == &probe || !started) std::remove(copy.c_str());
    if (!started) {
      out.fail("xplaind did not start");
      return;
    }
    setups.push_back(target.setup_s);
  }
  const StreamPass p = run_stream(w, d, w.prep_requests, 0, a.seconds);
  double rss = 0.0;
  const auto stats = stop_daemon(d, &rss);
  std::remove((base + ".live" + std::to_string(kSetupSamples - 1)).c_str());
  check_stream(w, p, answers, out);
  std::vector<double> lat;
  for (const Exchange& ex : p.ex)
    if (!ex.failed()) lat.push_back((ex.finished - ex.sent) / 1e6);
  const TailPercentile tail = tail_percentile(lat);
  out.metric("setup_s", median(setups), "s");
  out.metric("jobs_per_s", p.jobs / p.seconds, "jobs/s");
  out.metric("latency_p50_ms", percentile(lat, 50), "ms");
  out.metric("latency_p90_ms", percentile(lat, 90), "ms");
  out.metric("peak_rss_mb", rss, "MB");
  out.metric("significant_findings",
             answers.significant_before(w.prep_requests +
                                        kServiceFixedRequests),
             "count");
  out.note("latency = submit written to done read, closed loop, one client; " +
           std::to_string(lat.size()) + " requests, " +
           std::to_string(p.jobs) + " jobs over " + fmt(p.seconds) +
           " s; highest supported tail: p" + fmt(tail.p) + " = " +
           fmt(tail.value) + " ms");
  std::string deciles = "latency deciles (ms):";
  for (int q = 10; q <= 100; q += 10)
    deciles += " " + fmt(percentile(lat, q));
  out.note(deciles);
  out.note("daemon cache: " + std::to_string(stat_of(stats, "cache_hits")) +
           " hits, " + std::to_string(stat_of(stats, "cache_misses")) +
           " misses, " +
           std::to_string(stat_of(d.start_stats, "cache_replayed")) +
           " entries replayed at start");
  out.note("setup_s = median of " + std::to_string(kSetupSamples) +
           " daemon spawns to the first stats reply (journal replay "
           "included)");
  out.note("significant_findings = significant subspaces over the distinct "
           "jobs of the first " +
           std::to_string(w.prep_requests + kServiceFixedRequests) +
           " requests (exact for the seed)");
}

struct ReplayPass {
  double jobs_per_s = 0.0;
  std::vector<std::string> seen;  // per request, sorted like check_stream
  xplain::server::ServiceStats stats;
  xplain::solver::LpCounters lp;
  long observations = 0;
  long trends = 0;
  double json_ms = 0.0;
  double json_bytes = 0.0;
};

/// Replays the daemon pass's requests into an in-process Service over
/// `reg`, started from the same journal.  With a span log, also records
/// request, job, JSON-parse and generalize spans and re-mines each
/// request's trends.
ReplayPass replay_stream(const ServiceWorkload& w, const StreamPass& p,
                         const Settings& set, const std::string& journal,
                         const std::string& copy, xplain::CaseRegistry& reg,
                         SpanLog* log, Outcome& out) {
  ReplayPass rp;
  copy_file(journal, copy);
  xplain::server::ServiceOptions so;
  so.workers = set.service_workers;
  so.cache_max_bytes = w.cache_max_bytes;
  so.cache_path = copy;
  const LpDelta lp;
  auto svc_owner = std::make_unique<xplain::server::Service>(so, reg);
  xplain::server::Service& svc = *svc_owner;
  long jobs = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < p.items.size(); ++k) {
    const ExperimentSpec& spec = w.items[p.items[k]];
    const int id = p.first + static_cast<int>(k);
    if (log) {
      const std::string line = submit_line(spec, id);
      const std::int64_t j0 = now_ns();
      const bool parsed = Json::parse(line).has_value();
      rp.json_ms += (now_ns() - j0) / 1e6;
      rp.json_bytes += static_cast<double>(line.size());
      if (!parsed) out.fail("request line does not parse");
    }
    std::mutex mu;
    std::vector<std::string> got;
    std::vector<Span> job_spans;
    const std::int64_t r0 = now_ns();
    const xplain::ExperimentSummary s =
        svc.run(spec, [&](const JobSummary& j, bool cached) {
          const std::int64_t t = now_ns();
          std::lock_guard<std::mutex> lock(mu);
          got.push_back(std::string(cached ? "H " : "M ") +
                        scrub_wall(j.to_json_value().dump(0)));
          if (log && !cached) {
            Span js;
            js.name = "pipeline.job";
            js.end = t;
            js.start = t - static_cast<std::int64_t>(j.wall_seconds * 1e9);
            js.op = id;
            js.thread = thread_tag();
            job_spans.push_back(js);
          }
        });
    const std::int64_t r1 = now_ns();
    jobs += static_cast<long>(s.jobs.size());
    std::sort(got.begin(), got.end());
    rp.seen.insert(rp.seen.end(), got.begin(), got.end());
    if (!log) continue;
    Span rs;
    rs.name = "server.request";
    rs.start = r0;
    rs.end = r1;
    rs.op = id;
    rs.thread = thread_tag();
    const int ri = log->add(rs);
    for (Span& js : job_spans) js.parent = ri;
    log->add_all(std::move(job_spans));
    // The service mines trends per request before done; mine them again
    // from the delivered jobs and compare.
    std::vector<xplain::PipelineResult> slim;
    for (const JobSummary& j : s.jobs) {
      xplain::PipelineResult r;
      r.features = j.features;
      r.gap_scale = j.gap_scale;
      r.best_gap_found = std::max(j.best_gap_found, j.max_seed_gap);
      slim.push_back(std::move(r));
    }
    Span g;
    g.name = "generalize.batch";
    g.op = id;
    g.thread = thread_tag();
    g.start = now_ns();
    const auto mined = xplain::generalize::generalize_batch(
        slim, spec.grammar, spec.normalize_gap);
    g.end = now_ns();
    log->add(g);
    rp.observations += static_cast<long>(mined.observations.size());
    rp.trends += static_cast<long>(mined.predicates.size());
    if (xplain::make_trend_summaries(mined) != s.trends)
      out.fail("generalize_batch on delivered jobs differs from the "
               "service's trends");
  }
  rp.jobs_per_s = jobs / ((now_ns() - t0) / 1e9);
  rp.stats = svc.stats();
  svc_owner.reset();  // shuts down and compacts the journal copy
  rp.lp = lp.get();
  std::remove(copy.c_str());
  return rp;
}

/// Traced run over a fixed share of the stream: the daemon pass gives the
/// protocol and server metrics; in-process replays of the same requests —
/// plain, through decorated cases, plain again — give the layer spans and
/// the tracing overhead.
void service_traced(const Args& a, const Settings& set,
                    const ServiceWorkload& w, const std::string& journal,
                    const std::string& base, Answers& answers, Outcome& out) {
  Daemon d;
  const bool started = start_daemon(a, w, journal, base + ".live", d);
  if (!started) {
    std::remove((base + ".live").c_str());
    out.fail("xplaind did not start");
    return;
  }
  const StreamPass p =
      run_stream(w, d, w.prep_requests, kServiceFixedRequests, 0);
  const auto stats = stop_daemon(d, nullptr);
  std::remove((base + ".live").c_str());
  const std::vector<std::string> daemon_seen = check_stream(w, p, answers, out);

  const std::string copy = base + ".replay";
  const ReplayPass plain = replay_stream(w, p, set, journal, copy,
                                         xplain::registry(), nullptr, out);
  SpanLog log;
  Decorator deco(log);
  xplain::CaseRegistry dreg;
  deco.decorate(dreg, all_cases());
  const ReplayPass traced =
      replay_stream(w, p, set, journal, copy, dreg, &log, out);
  const ReplayPass plain2 = replay_stream(w, p, set, journal, copy,
                                          xplain::registry(), nullptr, out);
  out.check(plain.seen == daemon_seen,
            "service: in-process replay answers differ from the daemon's");
  out.check(traced.seen == plain.seen && plain2.seen == plain.seen,
            "service: replay answers differ between replays");
  out.check(same_lp(plain.lp, traced.lp) && same_lp(plain.lp, plain2.lp),
            "service: LP counters differ between replays");
  out.check(traced.stats.case_builds == stat_of(stats, "case_builds"),
            "service: replay case builds differ from the daemon's");

  std::vector<Span> spans = log.take();
  link_parents(spans, {"evaluator.gap", "explain.oracle"}, {"pipeline.job"},
               true);
  link_parents(spans, {"cases.build", "evaluator.gap", "explain.oracle"},
               {"server.request"}, false);
  add_lp_metrics(out, traced.lp, p.jobs,
                 add_span_metrics(out, self_times(spans), deco.counts()));
  out.metric("generalize.observations", traced.observations, "count");
  out.metric("generalize.trends", traced.trends, "count");

  // Protocol and server figures from the client's event timestamps.
  std::vector<double> queue_wait, hit_lat, accept, done_gap;
  double bytes = 0;
  for (const Exchange& ex : p.ex) {
    if (ex.failed()) continue;
    bool all_cached = true;
    for (std::size_t i = 0; i < ex.job_events.size(); ++i) {
      const std::string& ev = ex.job_events[i];
      if (job_cached(ev)) continue;
      all_cached = false;
      const std::optional<Json> j = Json::parse(job_object(ev));
      const Json* wall = j ? j->find("wall_seconds") : nullptr;
      const double wall_ms = wall ? wall->as_num() * 1e3 : 0.0;
      queue_wait.push_back(
          std::max(0.0, (ex.job_times[i] - ex.accepted) / 1e6 - wall_ms));
    }
    if (all_cached) hit_lat.push_back((ex.finished - ex.sent) / 1e6);
    accept.push_back((ex.accepted - ex.sent) / 1e6);
    if (!ex.job_times.empty())
      done_gap.push_back((ex.finished - ex.job_times.back()) / 1e6);
    bytes += static_cast<double>(ex.response_bytes);
  }
  const auto delta = [&](const char* k) {
    return static_cast<double>(stat_of(stats, k) - stat_of(d.start_stats, k));
  };
  const double hits = delta("cache_hits"), misses = delta("cache_misses");
  out.metric("server.queue_wait_ms_p50", percentile(queue_wait, 50), "ms");
  out.metric("server.queue_wait_ms_p90", percentile(queue_wait, 90), "ms");
  out.metric("server.hit_latency_ms_p50", percentile(hit_lat, 50), "ms");
  out.metric("server.cache_hit_share",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out.metric("server.cache_hits", hits, "count");
  out.metric("server.cache_misses", misses, "count");
  out.metric("server.cache_evictions", delta("cache_evictions"), "count");
  out.metric("server.cache_inflight_waits", delta("cache_inflight_waits"),
             "count");
  out.metric("server.case_builds", delta("case_builds"), "count");
  out.metric("server.replay_entries", stat_of(d.start_stats, "cache_replayed"),
             "count");
  out.metric("xplaind.accept_ms", percentile(accept, 50), "ms");
  out.metric("xplaind.done_ms", percentile(done_gap, 50), "ms");
  out.metric("xplaind.response_bytes",
             p.ex.empty() ? 0.0 : bytes / p.ex.size(), "bytes");
  out.metric("json.parse_ms", traced.json_ms, "ms");
  out.metric("json.bytes", traced.json_bytes, "bytes");
  out.metric("engine.jobs", p.jobs, "count");
  out.metric("trace_overhead_share",
             overhead_share(plain.jobs_per_s, traced.jobs_per_s,
                            plain2.jobs_per_s),
             "ratio");
  out.note("traced: " + std::to_string(p.ex.size()) + " requests; " +
           std::to_string(queue_wait.size()) + " computed jobs for queue "
           "wait, " + std::to_string(hit_lat.size()) + " all-hit requests; "
           "replay " + fmt(traced.jobs_per_s) + " jobs/s traced vs " +
           fmt(plain.jobs_per_s) + " and " + fmt(plain2.jobs_per_s) +
           " untraced; pipeline.* stage times are not in JobSummary and "
           "read 0");
  out.spans = std::move(spans);
}

void service_workload_run(const Args& a, const Settings& set, Outcome& out) {
  const ServiceWorkload w = service_workload(a.seed, set);
  const std::string base = a.out_dir + "/service_seed" + std::to_string(a.seed);
  const std::string journal = base + ".journal";
  Answers answers;
  if (!prepare_journal(w, journal, answers, out)) {
    out.fail("could not prepare the cache journal");
  } else {
    out.note("working set: " + std::to_string(w.items.size()) +
             " requests, " + std::to_string(w.working_set_jobs) +
             " jobs; cache bound " + std::to_string(w.cache_max_bytes) +
             " bytes; journal from the first " +
             std::to_string(w.prep_requests) + " requests");
    if (a.trace == 0)
      service_timed(a, w, journal, base, answers, out);
    else
      service_traced(a, set, w, journal, base, answers, out);
  }
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------- modes

int setup_probe(const Args& a) {
  const Settings set;
  if (a.workload == "study_sweep") {
    const ExperimentSpec spec = study_grid(a.seed, 0, set);
    if (xplain::Engine().expand(spec).empty()) return 1;
  } else if (a.workload == "fuzz_search") {
    const xplain::search::FuzzerOptions o = fuzz_options(a.seed, 0, set);
    for (const std::string& c : o.cases)
      if (!xplain::registry().contains(c)) return 1;
  } else {
    return 1;
  }
  std::cout << "ready" << std::endl;
  return 0;
}

void print_result(const Args& a, const Settings& set, Outcome& out) {
  const bool correct = out.failed == 0;
  std::cout << "perfbench " << a.workload << " seed=" << a.seed
            << " trace=" << a.trace << "\n";
  std::cout << "provenance: commit=" << a.commit << " build="
            << PERFBENCH_BUILD_TYPE << " compiler=" << PERFBENCH_COMPILER
            << " nproc=" << available_cpus() << " seconds=" << a.seconds
            << "\n";
  std::cout << "workers: engine=" << set.engine_workers
            << " fuzz=" << set.fuzz_workers
            << " service(XPLAIN_WORKERS)=" << set.service_workers
            << " explain=" << set.explain_workers
            << " significance=" << set.significance_workers
            << " compute_threads=" << set.compute_threads() << "\n";
  for (const std::string& n : out.notes) std::cout << n << "\n";
  std::cout << "failed_share = " << out.failed << "/" << out.attempted
            << "\n";
  for (const std::string& f : out.failures) std::cout << "FAILED: " << f << "\n";
  for (const auto* list : {&out.metrics, &out.layer_times})
    for (const Metric& m : *list)
      std::cout << "  " << m.name << " = " << fmt(m.value) << " " << m.unit
                << "\n";

  const auto to_json = [](const std::vector<Metric>& list) {
    Json j = Json::object();
    for (const Metric& m : list) {
      Json v = Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      j.set(m.name, std::move(v));
    }
    return j;
  };
  Json metrics = to_json(out.metrics);
  Json prov = Json::object();
  prov.set("workload", a.workload);
  prov.set("seed", std::to_string(a.seed));
  prov.set("trace", a.trace);
  prov.set("seconds", a.seconds);
  prov.set("commit", a.commit);
  prov.set("build_type", PERFBENCH_BUILD_TYPE);
  prov.set("compiler", PERFBENCH_COMPILER);
  prov.set("nproc", available_cpus());
  prov.set("engine_workers", set.engine_workers);
  prov.set("fuzz_workers", set.fuzz_workers);
  prov.set("service_workers", set.service_workers);
  prov.set("explain_workers", set.explain_workers);
  prov.set("significance_workers", set.significance_workers);
  Json notes = Json::array();
  for (const std::string& n : out.notes) notes.push(n);
  Json full = Json::object();
  full.set("provenance", std::move(prov));
  full.set("notes", std::move(notes));
  full.set("correct", correct);
  full.set("attempted", out.attempted);
  full.set("failed", out.failed);
  full.set("metrics", metrics);
  full.set("layer_times", to_json(out.layer_times));
  const std::string stem = a.out_dir + "/" + a.workload + "_seed" +
                           std::to_string(a.seed) + "_trace" +
                           std::to_string(a.trace);
  std::ofstream(stem + ".json") << full.dump(2) << "\n";
  if (!out.spans.empty()) write_spans(stem + ".spans.tsv", out.spans);
  std::cout << "result: " << stem << ".json\n";

  Json last = Json::object();
  last.set("correct", correct);
  last.set("attempted", out.attempted);
  last.set("failed", out.failed);
  last.set("metrics", std::move(metrics));
  std::cout << last.dump(0) << std::endl;
}

int run(const Args& a) {
  const Settings set;
  if (set.compute_threads() > available_cpus()) {
    std::cerr << "perfbench: " << set.compute_threads()
              << " compute threads configured but only " << available_cpus()
              << " CPUs available; refusing to run\n";
    return 3;
  }
  if (const std::string err = run_selftests(self_exe()); !err.empty()) {
    std::cerr << "perfbench: self-test failed: " << err << "\n";
    return 4;
  }
  Outcome out;
  if (a.workload == "study_sweep") {
    study_workload(a, set, out);
  } else if (a.workload == "fuzz_search") {
    fuzz_workload(a, set, out);
  } else if (a.workload == "service_stream") {
    if (a.xplaind.empty() || ::access(a.xplaind.c_str(), X_OK) != 0) {
      std::cerr << "perfbench: service_stream needs --xplaind PATH\n";
      return 2;
    }
    service_workload_run(a, set, out);
  } else {
    std::cerr << "perfbench: unknown workload \"" << a.workload << "\"\n";
    return 2;
  }
  if (a.trace == 1) {
    // Every traced run reports every per-layer name; the rest are layer
    // times of this workload only.
    std::vector<Metric> listed;
    for (const auto& [name, unit] : per_layer_names()) {
      Metric m{name, 0.0, unit};
      for (const Metric& have : out.metrics)
        if (have.name == name) m = have;
      listed.push_back(m);
    }
    for (const Metric& have : out.metrics) {
      const bool in_list = std::any_of(
          per_layer_names().begin(), per_layer_names().end(),
          [&](const auto& n) { return n.first == have.name; });
      if (!in_list) out.layer_times.push_back(have);
    }
    out.metrics = std::move(listed);
  }
  if (out.attempted == 0) out.fail("nothing was attempted");
  print_result(a, set, out);
  return out.failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (k == "--workload") a->workload = val();
    else if (k == "--seed") a->seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(val().c_str());
    else if (k == "--trace") a->trace = std::atoi(val().c_str());
    else if (k == "--xplaind") a->xplaind = val();
    else if (k == "--out-dir") a->out_dir = val();
    else if (k == "--commit") a->commit = val();
    else if (k == "--selftest") a->selftest = true;
    else if (k == "--setup-probe") a->setup_probe = true;
    else if (k == "--fake-daemon") a->fake_daemon = val();
    else return false;
  }
  return a->trace == 0 || a->trace == 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, &a)) {
    std::cerr << "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 [--xplaind PATH] [--out-dir DIR] [--commit ID]"
                 " | --selftest\n";
    return 2;
  }
  if (!a.fake_daemon.empty()) return perfbench::fake_daemon(a.fake_daemon);
  if (a.setup_probe) return perfbench::setup_probe(a);
  if (a.selftest) {
    const std::string err = perfbench::run_selftests(perfbench::self_exe());
    std::cout << (err.empty() ? "selftest: ok" : "selftest: FAILED: " + err)
              << std::endl;
    return err.empty() ? 0 : 1;
  }
  return perfbench::run(a);
}
