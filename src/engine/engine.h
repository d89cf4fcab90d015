// The experiment engine — the system's front door (ISSUE 4 / api_redesign).
//
// The paper's pipeline explains one (heuristic, benchmark, instance) study
// at a time; the ROADMAP north-star sweeps *many* scenarios per heuristic.
// xplain::ExperimentSpec describes such a sweep declaratively — case names
// x a ScenarioSpec grid x PipelineOptions x a seed — and xplain::Engine
// turns it into results:
//
//   * expand() multiplies the grid into (case, scenario) jobs in a fixed
//     order (cases outer, scenarios inner; an empty grid yields one
//     default-instance job per case);
//   * run() shards the jobs across a worker pool with the repo's
//     slot-determinism contract (util/parallel.h): every job's options are
//     a pure function of (spec, job index), results land in slot-indexed
//     storage, so the output is bitwise identical for ANY worker count /
//     XPLAIN_WORKERS setting;
//   * every job runs through the job path server::Service shares
//     (engine/grid_job.h): each unique (case, scenario) instance is built
//     once and dropped after its last job, and a job whose build or
//     pipeline throws fails alone instead of aborting the grid;
//   * each finished job streams through an optional callback (serialized
//     under a mutex; completion ORDER depends on scheduling, job CONTENT
//     does not);
//   * the batch is piped into generalize::generalize_batch automatically —
//     Type-3 trends fall out of every multi-instance experiment without a
//     bespoke per-domain adapter.
//
// ExperimentResult keeps the full per-job PipelineResults and carries a
// JSON serialization (ExperimentSummary / to_json / from_json, built on
// util::Json) — the single machine-readable output format the benches emit
// through tools/bench_json.
//
// The engine lives above generalize/ and drives cases through the
// CaseRegistry only — never through a concrete case include — so it stays
// as heuristic-agnostic as the core pipeline (tools/lint/xplain_lint.py).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "generalize/generalizer.h"
#include "scenario/spec.h"
#include "solver/lp.h"
#include "util/json.h"
#include "xplain/case.h"
#include "xplain/pipeline.h"

namespace xplain {

/// A declarative experiment: which cases, over which scenarios, with which
/// pipeline knobs.  Everything downstream is a pure function of this.
struct ExperimentSpec {
  /// CaseRegistry keys, e.g. {"demand_pinning", "wcmp"}.
  std::vector<std::string> cases;
  /// Scenario grid; empty runs each case once on its default instance.
  std::vector<scenario::ScenarioSpec> scenarios;
  /// Per-job pipeline configuration (seeds are re-derived per job).
  PipelineOptions options;
  /// Optional third grid axis (the ROADMAP's "pipeline-option sweeps"):
  /// when non-empty the grid is cases x scenarios x these variants —
  /// variants INNERMOST, so a job's variant is index % option_variants.size()
  /// and derived_job_options stays a pure function of (spec, index) — and
  /// `options` above is ignored.  Each variant's fingerprint() already
  /// disambiguates result-cache keys.  This is how ablation sweeps (sample
  /// budgets, significance thresholds, analyzer on/off) and the fuzzer's
  /// cheap-probe-then-deep-run split ride one Engine grid.
  std::vector<PipelineOptions> option_variants;
  /// Experiment-level seed, folded into every job's RNG streams: two
  /// experiments differing only in seed are decorrelated replications.
  std::uint64_t seed = 0;
  /// On (default): every job's RNG streams derive from (seed, job index),
  /// decorrelating grid cells.  Off: every job runs with `options`' seeds
  /// verbatim — a single-job experiment then reproduces a bare
  /// run_pipeline(case, options) call bit for bit (grids become seed-
  /// correlated; leave on for real sweeps).
  bool reseed_jobs = true;
  /// Worker threads; <= 0 resolves via util::resolve_workers (one per
  /// hardware thread unless XPLAIN_WORKERS overrides).
  int workers = 0;
  /// Mine Type-3 trends across the finished jobs (generalize_batch).
  bool run_generalizer = true;
  generalize::GrammarOptions grammar;
  /// Normalize per-job gaps by the case's gap_scale() before mining.
  bool normalize_gap = true;
};

/// One cell of the expanded grid.
struct ExperimentJob {
  std::string case_name;
  /// Empty: the case's registry default instance.
  std::optional<scenario::ScenarioSpec> scenario;
  /// Position in the expanded grid (drives the job's derived seeds).
  int index = 0;
  /// Position in spec.option_variants; -1 when the spec's single `options`
  /// value applies (no option axis).
  int option_index = -1;

  /// "wcmp@fat_tree_k4_s1" / "demand_pinning@default".  Uses the spec's
  /// display_name(), which appends capacity / Waxman suffixes when they
  /// differ from the defaults — grid cells that differ only in those
  /// fields keep distinct labels (e.g. "...@line_n2_s1_c35").  Option-axis
  /// cells get a "#o<variant>" suffix for the same reason.
  std::string label() const {
    std::string l =
        case_name + "@" + (scenario ? scenario->display_name() : "default");
    if (option_index >= 0) l += "#o" + std::to_string(option_index);
    return l;
  }
};

struct JobResult {
  ExperimentJob job;
  /// False when the case is unknown, cannot build from the scenario
  /// (default-only registration), or its build or pipeline threw
  /// ("job threw: ..."); `error` says which.
  bool ok = false;
  std::string error;
  PipelineResult pipeline;
  /// The seed salt this job's RNG streams derived from (spec.seed mixed
  /// with the grid index when reseed_jobs is on; spec.options.seed_salt
  /// verbatim otherwise) — see derived_job_options.
  std::uint64_t seed = 0;
  /// fingerprint() of the job's fully-derived PipelineOptions: together
  /// with (case, scenario.cache_key()) this content-addresses the job —
  /// the server's result cache keys on exactly this triple.
  std::string options_fingerprint;
};

/// The JSON-serializable digest of one job — exactly what to_json writes.
struct JobSummary {
  std::string case_name;
  std::string scenario;  // "" = default instance
  int index = 0;
  bool ok = false;
  std::string error;
  int subspaces = 0;
  int significant = 0;
  double best_gap_found = 0.0;
  double max_seed_gap = 0.0;
  double gap_scale = 1.0;
  double wall_seconds = 0.0;
  /// The job's StageTimes::lp, exact even under concurrent workers (the
  /// counters are thread-inclusive).  Only the digest counters
  /// (LpCounterField::in_digest) are copied, serialized and compared — this
  /// JSON is the cache's frozen wire format — so lp.warm_solves stays 0.
  solver::LpCounters lp;
  std::map<std::string, double> features;
  /// Replication provenance (JobResult::seed / ::options_fingerprint).
  /// `seed` serializes as a decimal STRING: derived salts use all 64 bits
  /// and a JSON number (double) would corrupt values above 2^53.
  std::uint64_t seed = 0;
  std::string options_fingerprint;

  bool operator==(const JobSummary& o) const;

  /// One job as a JSON value / parsed back (std::nullopt on malformed
  /// input).  ExperimentSummary::to_json/from_json are built on these; the
  /// server's result cache serializes cached jobs through the same pair so
  /// repeat queries are bitwise identical to the original emission.
  util::Json to_json_value() const;
  static std::optional<JobSummary> from_json_value(const util::Json& v);
};

struct TrendSummary {
  std::string predicate;  // "increasing(pinned_sp_hops)"
  std::string feature;
  bool increasing = true;
  double rho = 0.0;
  double p_value = 1.0;
  int support = 0;

  bool operator==(const TrendSummary& o) const;
};

/// The machine-readable face of an ExperimentResult: round-trips through
/// JSON bit-exactly (doubles are printed with max_digits10).
struct ExperimentSummary {
  std::vector<JobSummary> jobs;
  std::vector<TrendSummary> trends;
  int observations = 0;  // instances the generalizer mined over
  double wall_seconds = 0.0;
  /// The sum of the jobs' lp: digest counters only, like JobSummary::lp.
  solver::LpCounters lp;

  bool operator==(const ExperimentSummary& o) const;

  std::string to_json(int indent = 2) const;
  /// std::nullopt on malformed input.
  static std::optional<ExperimentSummary> from_json(const std::string& text);
};

struct ExperimentResult {
  /// Grid order (== Engine::expand order), regardless of scheduling.
  std::vector<JobResult> jobs;
  /// Type-3 output over the ok jobs (empty when run_generalizer is off).
  generalize::GeneralizerResult trends;
  /// Merged accounting: the sum of the jobs' traces and stages (so
  /// stages.lp is the sum of the jobs' exact per-job LP work).
  subspace::GenerationTrace trace;
  StageTimes stages;
  double wall_seconds = 0.0;
  /// Scenario-parameterized case constructions this run performed: one per
  /// UNIQUE (case, scenario.cache_key()) pair, not per job (a build that
  /// throws is retried by the cell's next job and counted again) — a 10-seed
  /// replication grid builds each instance once (bench_service measures
  /// this).  Not serialized: it is an execution statistic, not a result.
  int case_builds = 0;

  int total_subspaces() const;
  ExperimentSummary summary() const;
  std::string to_json(int indent = 2) const { return summary().to_json(indent); }
};

class Engine {
 public:
  /// The engine resolves case names against `reg` (default: the process
  /// registry the built-in cases self-register into).
  explicit Engine(CaseRegistry& reg = registry()) : registry_(&reg) {}

  /// Invoked as each job finishes (serialized; nondeterministic order,
  /// deterministic content).
  using JobCallback = std::function<void(const JobResult&)>;

  /// The (case x scenario x option-variant) grid in its canonical order:
  /// cases outer, scenarios inner, option variants innermost.
  std::vector<ExperimentJob> expand(const ExperimentSpec& spec) const;

  /// Runs the experiment.  Bitwise-deterministic for any worker count.
  ExperimentResult run(const ExperimentSpec& spec,
                       const JobCallback& on_job = {}) const;

 private:
  CaseRegistry* registry_;
};

/// The per-job options derivation every grid job runs with (make_grid_job
/// in engine/grid_job.h): a pure function of (spec, index).  `seed_out`,
/// when non-null, receives the salt the streams derived from
/// (== JobResult::seed).
PipelineOptions derived_job_options(const ExperimentSpec& spec, int index,
                                    std::uint64_t* seed_out = nullptr);

/// The JobResult -> JobSummary digest ExperimentResult::summary() applies
/// per job, exposed for drivers that stream summaries job by job.
JobSummary make_job_summary(const JobResult& r);

/// The GeneralizerResult -> TrendSummary digest summary() applies, exposed
/// for drivers that mine trends themselves (the server's Service::wait).
std::vector<TrendSummary> make_trend_summaries(
    const generalize::GeneralizerResult& g);

}  // namespace xplain
