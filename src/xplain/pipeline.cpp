#include "xplain/pipeline.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/timer.h"

namespace xplain {

namespace {

/// Decorates an analyzer to accumulate the wall time spent inside
/// find_adversarial (so the generator's total splits into analyze vs
/// subspace-construction time) and the best gap observed (so Type-3 sees
/// the raw analyzer signal even when every subspace is later rejected).
class TimedAnalyzer : public analyzer::HeuristicAnalyzer {
 public:
  TimedAnalyzer(analyzer::HeuristicAnalyzer& inner, double& accum,
                double& best_gap)
      : inner_(inner), accum_(accum), best_gap_(best_gap) {}

  std::optional<analyzer::AdversarialExample> find_adversarial(
      const analyzer::GapEvaluator& eval, double min_gap,
      const std::vector<analyzer::Box>& excluded) override {
    util::Timer timer;
    auto out = inner_.find_adversarial(eval, min_gap, excluded);
    accum_ += timer.seconds();
    if (out) best_gap_ = std::max(best_gap_, out->gap);
    return out;
  }

  std::string name() const override { return inner_.name(); }

 private:
  analyzer::HeuristicAnalyzer& inner_;
  double& accum_;
  double& best_gap_;
};

}  // namespace

PipelineOptions apply_seed_salt(PipelineOptions opts, std::uint64_t salt) {
  opts.seed_salt = salt;  // consumed by HeuristicCase::make_analyzer
  opts.subspace.seed += salt;
  opts.subspace.significance.seed += salt;
  opts.explain.seed += salt;
  return opts;
}

std::string PipelineOptions::fingerprint() const {
  // Doubles by bit pattern (the ScenarioSpec::cache_key idiom): printing
  // would truncate and alias nearby values, breaking injectivity.
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return std::to_string(u);
  };
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  std::string f = "pf1";
  f += ";mg=" + bits(min_gap);
  f += ";salt=" + u64(seed_salt);
  // Subspace generation (worker counts excluded; significance.workers is
  // wall-clock-only by the slot-determinism contract).
  f += ";s.bgf=" + bits(subspace.bad_gap_fraction);
  f += ";s.dt=" + bits(subspace.density_threshold);
  f += ";s.de=" + bits(subspace.dkw_eps);
  f += ";s.dd=" + bits(subspace.dkw_delta);
  f += ";s.ihw=" + bits(subspace.init_half_width_frac);
  f += ";s.sf=" + bits(subspace.slice_frac);
  f += ";s.mer=" + std::to_string(subspace.max_expansion_rounds);
  f += ";s.t.md=" + std::to_string(subspace.tree.max_depth);
  f += ";s.t.msl=" + std::to_string(subspace.tree.min_samples_leaf);
  f += ";s.t.mt=" + std::to_string(subspace.tree.max_thresholds);
  f += ";s.ts=" + std::to_string(subspace.tree_samples);
  f += ";s.tif=" + bits(subspace.tree_inflate_frac);
  f += ";s.sig.p=" + std::to_string(subspace.significance.pairs);
  f += ";s.sig.pt=" + bits(subspace.significance.p_threshold);
  f += ";s.sig.sh=" + bits(subspace.significance.shell_frac);
  f += ";s.sig.seed=" + u64(subspace.significance.seed);
  f += ";s.max=" + std::to_string(subspace.max_subspaces);
  f += ";s.seed=" + u64(subspace.seed);
  f += ";s.ki=" + std::to_string(subspace.keep_insignificant ? 1 : 0);
  // Type-2 explanation sampling.
  f += ";e.n=" + std::to_string(explain.samples);
  f += ";e.eps=" + bits(explain.flow_eps);
  f += ";e.seed=" + u64(explain.seed);
  f += ";e.att=" + std::to_string(explain.attempts_per_sample);
  return f;
}

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  compile_seconds += o.compile_seconds;
  analyze_seconds += o.analyze_seconds;
  subspace_seconds += o.subspace_seconds;
  explain_seconds += o.explain_seconds;
  lp += o.lp;
  return *this;
}

double PipelineResult::max_gap() const {
  double g = 0.0;
  for (const auto& s : subspaces) g = std::max(g, s.seed_gap);
  return g;
}

int PipelineResult::significant_count() const {
  int n = 0;
  for (const auto& s : subspaces) n += s.significant;
  return n;
}

PipelineResult run_pipeline(const analyzer::GapEvaluator& eval,
                            analyzer::HeuristicAnalyzer& an,
                            const flowgraph::FlowNetwork& net,
                            const explain::FlowOracle& oracle,
                            const PipelineOptions& opts) {
  util::Timer timer;
  const solver::LpCounters lp0 = solver::lp_counters();
  PipelineResult out;

  TimedAnalyzer timed(an, out.stages.analyze_seconds, out.best_gap_found);
  subspace::SubspaceGenerator gen(timed, opts.subspace);
  {
    util::Timer stage;
    out.subspaces = gen.generate(eval, opts.min_gap);
    out.stages.subspace_seconds = stage.seconds() - out.stages.analyze_seconds;
  }
  out.trace = gen.trace();

  {
    util::Timer stage;
    out.explanations.reserve(out.subspaces.size());
    for (const auto& sub : out.subspaces) {
      out.explanations.push_back(explain::explain_subspace(
          eval, sub.region, net, oracle, opts.explain));
    }
    out.stages.explain_seconds = stage.seconds();
  }
  out.stages.lp = solver::lp_counters() - lp0;
  out.wall_seconds = timer.seconds();
  XPLAIN_INFO << "pipeline: " << out.subspaces.size() << " subspaces in "
              << out.wall_seconds << "s (" << out.stages.lp.solves
              << " LP solves)";
  return out;
}

PipelineResult run_pipeline(const HeuristicCase& c,
                            const PipelineOptions& opts) {
  util::Timer timer;

  util::Timer compile;
  auto eval = c.make_evaluator();
  auto an = c.make_analyzer(opts.seed_salt);
  const flowgraph::FlowNetwork& net = c.network();
  auto oracle = c.make_oracle();
  const double compile_seconds = compile.seconds();

  PipelineResult out = run_pipeline(*eval, *an, net, oracle, opts);
  out.case_name = c.name();
  out.stages.compile_seconds = compile_seconds;
  out.features = c.features();
  out.gap_scale = c.gap_scale();
  out.wall_seconds = timer.seconds();
  return out;
}

}  // namespace xplain
