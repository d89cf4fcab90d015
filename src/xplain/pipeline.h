// XPlain pipeline façade — the Fig. 3 architecture wired end to end:
//
//   DSL --compile--> Heuristic Analyzer --example--> Adversarial Subspace
//   Generator --subspaces--> Significance Checker --Type 1--> Explainer
//   --Type 2-->  (and, across instances, Instance Generator + Generalizer
//   --Type 3--, exposed in src/generalize and fed by the experiment
//   engine).
//
// run_pipeline(case) is the single-job primitive: one HeuristicCase,
// typically obtained from the CaseRegistry —
//   run_pipeline(*registry().find("demand_pinning"));
// The low-level evaluator/analyzer/network/oracle overload remains for
// callers assembling pieces by hand.
//
// Multi-instance sweeps go through xplain::Engine (engine/engine.h): a
// declarative ExperimentSpec expands into (case, scenario) jobs, runs them
// deterministically across workers, and feeds Type-3 automatically.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "explain/explainer.h"
#include "explain/heatmap.h"
#include "solver/lp.h"
#include "subspace/subspace_generator.h"
#include "xplain/case.h"

namespace xplain {

struct PipelineOptions {
  double min_gap = 1.0;
  subspace::SubspaceOptions subspace;
  explain::ExplainOptions explain;
  /// Passed to HeuristicCase::make_analyzer to decorrelate stochastic
  /// analyzers; the engine overwrites it per job (derived_job_options).
  std::uint64_t seed_salt = 0;

  /// Stable, injective serialization of every knob that can change a
  /// pipeline's RESULT (gaps, subspaces, explanations, trends feed) —
  /// thresholds, budgets, and seeds, with doubles encoded by bit pattern.
  /// Worker-count fields are deliberately excluded: the parallel
  /// determinism contract (util/parallel.h) makes them wall-clock-only.
  /// This is the options leg of the server's result-cache key
  /// ((case, scenario.cache_key(), fingerprint)); two options values that
  /// could produce different results must never share a fingerprint, and
  /// the version prefix changes whenever a result-bearing knob is added.
  std::string fingerprint() const;
};

/// Per-stage wall-clock breakdown of one pipeline run, plus the LP solver
/// work the run triggered: `lp` is the solver::lp_counters delta across
/// the analyze, subspace and explain stages, every LpCounters field.  The
/// counters are thread-inclusive, so per-instance attribution is exact
/// even with several engine workers (see LpCounters in solver/lp.h).
struct StageTimes {
  double compile_seconds = 0.0;   // case -> evaluator/analyzer/oracle
  double analyze_seconds = 0.0;   // inside HeuristicAnalyzer::find_adversarial
  double subspace_seconds = 0.0;  // expansion + tree + significance
  double explain_seconds = 0.0;   // Type-2 sampling
  solver::LpCounters lp;

  double total() const {
    return compile_seconds + analyze_seconds + subspace_seconds +
           explain_seconds;
  }
  StageTimes& operator+=(const StageTimes& o);
};

struct PipelineResult {
  /// The case's self-reported name() — not necessarily the key it was
  /// registered or looked up under; empty for the low-level overload.
  std::string case_name;
  /// Type 1: validated adversarial subspaces.
  std::vector<subspace::AdversarialSubspace> subspaces;
  /// Type 2: one per subspace, aligned by index.
  std::vector<explain::Explanation> explanations;
  subspace::GenerationTrace trace;
  StageTimes stages;
  double wall_seconds = 0.0;
  /// Type-3 feed: the case's instance features and gap normalization.
  std::map<std::string, double> features;
  double gap_scale = 1.0;

  /// Largest adversarial gap the analyzer reported, including examples
  /// whose subspaces were later rejected as insignificant.  Still 0 when
  /// the analyzer found nothing at opts.min_gap — Type-3 sweeps should run
  /// with a low min_gap so weak instances contribute their true gaps.
  double best_gap_found = 0.0;

  /// Largest seed gap across *validated* subspaces (0 when none).
  double max_gap() const;
  /// Number of subspaces that passed the significance test.
  int significant_count() const;
};

/// Offsets every RNG stream in `opts` by `salt` — the one place that knows
/// which PipelineOptions fields carry seeds.  The experiment engine derives
/// its per-job options through this, so a newly added seeded stage
/// decorrelates across grid jobs too (a pure function: same (opts, salt)
/// in, same options out).
PipelineOptions apply_seed_salt(PipelineOptions opts, std::uint64_t salt);

/// Runs the pipeline on any heuristic case.
PipelineResult run_pipeline(const HeuristicCase& c,
                            const PipelineOptions& opts = {});

/// Low-level: pipeline over hand-assembled pieces.
PipelineResult run_pipeline(const analyzer::GapEvaluator& eval,
                            analyzer::HeuristicAnalyzer& an,
                            const flowgraph::FlowNetwork& net,
                            const explain::FlowOracle& oracle,
                            const PipelineOptions& opts = {});

}  // namespace xplain
