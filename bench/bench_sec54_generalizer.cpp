// E10 — §5.4: the generalizer emits increasing(P) for DP — "the gap is
// larger when the shortest path of the pinnable demands is longer" — and
// the §3 Type-3 sketch also predicts lower capacities hurt.
//
// Engine-driven since the ExperimentSpec redesign: the chain-with-detour
// family is registered as the scenario-parameterized case
// "demand_pinning_chain" (spec.size = chain length, spec.capacity = detour
// capacity), so the whole §5.4 sweep is one declarative grid — no
// hand-rolled instance loop, and the Type-3 mining happens inside
// Engine::run.  The controlled per-length series (the raw trend) is kept
// as a direct analyzer sweep for the figure's CSV.
#include <iostream>

#include "analyzer/search_analyzer.h"
#include "bench_json.h"
#include "cases/dp_case.h"
#include "engine/engine.h"
#include "generalize/instance_generator.h"
#include "util/csv.h"
#include "util/table.h"

int main() {
  xplain::tools::BenchReport bench_report("sec54_generalizer");
  using namespace xplain;
  std::cout << "E10 / §5.4 — Type-3 generalization for DP (xplain::Engine)\n\n";

  // Controlled sweep: gap vs pinned-path length at fixed capacities.
  util::Table sweep({"pinned shortest-path hops", "worst gap", "gap / d_max"});
  util::CsvWriter csv("sec54_gap_vs_hops.csv", {"hops", "gap", "norm_gap"});
  for (int len = 2; len <= 5; ++len) {
    generalize::DpFamilyParams params;
    params.chain_len = len;
    auto inst = generalize::make_dp_family_instance(params);
    cases::DpGapEvaluator eval(inst, te::DpConfig{params.threshold});
    analyzer::SearchAnalyzer an;
    auto ex = an.find_adversarial(eval, 0.0, {});
    const double gap = ex ? ex->gap : 0.0;
    sweep.add_row_numeric({static_cast<double>(len), gap,
                           gap / params.d_max});
    csv.row_numeric({static_cast<double>(len), gap, gap / params.d_max});
  }
  sweep.print(std::cout);

  // The generalizer proper, as one experiment: chain length 2..5 x detour
  // capacity {35, 50, 65} — 12 family members, mined automatically.
  std::cout << "\nExperiment grid: demand_pinning_chain x (len 2..5, detour "
               "{35, 50, 65}):\n";
  ExperimentSpec spec;
  spec.cases = {"demand_pinning_chain"};
  for (int len = 2; len <= 5; ++len) {
    for (double detour_cap : {35.0, 50.0, 65.0}) {
      scenario::ScenarioSpec s;
      s.kind = scenario::TopologyKind::kLine;  // the chain's shape label
      s.size = len;
      s.capacity = detour_cap;
      spec.scenarios.push_back(s);
    }
  }
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;  // Type-3 only needs the gaps
  spec.seed = 2024;
  spec.grammar.p_threshold = 0.1;

  auto res = Engine().run(spec);
  std::cout << "  " << res.jobs.size() << " jobs, "
            << res.trends.observations.size() << " observations, "
            << res.wall_seconds << "s\n\nMined predicates:\n";
  bool found_hops = false;
  for (const auto& p : res.trends.predicates) {
    std::cout << "  " << p.to_string() << " (rho=" << p.rho
              << ", p=" << p.p_value << ")\n";
    if ((p.feature == "pinned_sp_hops" || p.feature == "pinned_sp_max_hops") &&
        p.trend == generalize::Trend::kIncreasing)
      found_hops = true;
  }
  bench_report.metric("experiment_jobs", static_cast<double>(res.jobs.size()));
  bench_report.metric("mined_predicates",
                      static_cast<double>(res.trends.predicates.size()));
  bench_report.raw("experiment", res.to_json());

  std::cout << "\nPaper's predicted predicate increasing(P) over pinned "
               "shortest-path length: "
            << (found_hops ? "emitted" : "NOT emitted") << "\n";
  std::cout << (found_hops ? "[REPRODUCED]" : "[MISMATCH]") << "\n";
  return found_hops ? 0 : 1;
}
