// Tests for the Type-2 explainer: the Fig. 4a / Fig. 4b heatmap sign
// patterns the paper reports, plus rendering round-trips.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cases/dp_case.h"
#include "cases/ff_case.h"
#include "explain/explainer.h"
#include "explain/heatmap.h"

using namespace xplain;
using namespace xplain::explain;

namespace {

// The adversarial subspace of the Fig. 1a example: pinnable 1~>3 demand
// (just under threshold), saturating 1~>2 / 2~>3 demands.
subspace::Polytope fig1a_hot_region() {
  subspace::Polytope p;
  // The adversarial core: pinnable 1~>3 demand, direct paths (nearly)
  // saturated — only then is the optimal *forced* onto the detour, which is
  // what makes the Fig. 4a red/blue pattern unambiguous (below saturation
  // the optimum is degenerate and either routing is optimal).
  p.box.lo = {30, 95, 95};
  p.box.hi = {50, 100, 100};
  return p;
}

}  // namespace

TEST(Explainer, Fig4aSignPattern) {
  auto inst = te::TeInstance::fig1a_example();
  te::DpConfig cfg{50.0};
  auto dp = te::build_dp_network(inst);
  cases::DpGapEvaluator eval(inst, cfg);
  auto oracle = cases::make_dp_oracle(dp, inst, cfg);

  ExplainOptions opts;
  opts.samples = 400;  // plenty for a sign check
  // Count only meaningful flows: the optimal routes a few units of leftover
  // 1~>3 demand on the direct path when the big demands do not saturate it
  // (an LP-degenerate choice); the Fig. 4a signal is about where the *bulk*
  // of the demand goes.
  opts.flow_eps = 20.0;
  auto ex = explain_subspace(eval, fig1a_hot_region(), dp.net, oracle, opts);
  ASSERT_GT(ex.samples_used, 200);

  // Paper Fig. 4a: DP insists on the shortest path 1-2-3 for the pinnable
  // demand (red), the optimal reroutes it onto 1-4-5-3 (blue).
  const double heat_shortest = ex.edges[dp.path_edges[0][0].v].heat;
  const double heat_detour = ex.edges[dp.path_edges[0][1].v].heat;
  EXPECT_LT(heat_shortest, -0.5) << "heuristic-only => strongly red";
  EXPECT_GT(heat_detour, 0.5) << "benchmark-only => strongly blue";

  // The unmet edges are red-ish too: only the heuristic leaves demand unmet.
  double unmet_heat = 0;
  for (auto e : dp.unmet_edges) unmet_heat += ex.edges[e.v].heat;
  EXPECT_LT(unmet_heat, 0.0);
}

TEST(Explainer, Fig4bCascadePattern) {
  vbp::VbpInstance inst;
  inst.num_balls = 4;
  inst.num_bins = 3;
  inst.dims = 1;
  inst.capacity = 1.0;
  auto ffn = vbp::build_ff_network(inst);
  cases::VbpGapEvaluator eval(inst);
  auto oracle =
      cases::make_vbp_oracle(ffn, inst, vbp::VbpHeuristic::kFirstFit);

  // Around the paper's 1%,49%,51%,51% adversarial instance.
  subspace::Polytope region;
  region.box.lo = {0.01, 0.40, 0.51, 0.51};
  region.box.hi = {0.08, 0.49, 0.60, 0.60};

  ExplainOptions opts;
  opts.samples = 400;
  auto ex = explain_subspace(eval, region, ffn.net, oracle, opts);
  ASSERT_GT(ex.samples_used, 200);

  // FF places ball 1 (0.4-0.49) into bin 0 next to ball 0 — the greedy
  // choice that cascades (Fig. 4b "FF places a large ball in the first bin,
  // causing it to have to place the last ball differently").  OPT avoids
  // it: ball 1 pairs with a 0.51 ball instead.
  const double heat_b1_bin0 = ex.edges[ffn.ball_bin_edges[1][0].v].heat;
  EXPECT_LT(heat_b1_bin0, -0.5);
  // The last ball lands in the overflow bin 2 only under FF.
  const double heat_b3_bin2 = ex.edges[ffn.ball_bin_edges[3][2].v].heat;
  EXPECT_LT(heat_b3_bin2, -0.5);
}

TEST(Explainer, InfeasiblePointsAreSkipped) {
  auto inst = te::TeInstance::fig1a_example();
  te::DpConfig cfg{50.0};
  auto dp = te::build_dp_network(inst);
  cases::DpGapEvaluator eval(inst, cfg);
  int calls = 0;
  FlowOracle flaky = [&](const std::vector<double>& x,
                         std::vector<double>& h, std::vector<double>& b) {
    ++calls;
    if (calls % 2 == 0) return false;  // every other point "infeasible"
    h.assign(dp.net.num_edges(), 0.0);
    b.assign(dp.net.num_edges(), 0.0);
    (void)x;
    return true;
  };
  ExplainOptions opts;
  opts.samples = 50;
  auto ex = explain_subspace(eval, fig1a_hot_region(), dp.net, flaky, opts);
  EXPECT_EQ(ex.samples_used, 50);  // skipping, not failing
  EXPECT_GT(calls, 50);
}

TEST(Heatmap, TextCsvAndDotRender) {
  auto inst = te::TeInstance::fig1a_example();
  te::DpConfig cfg{50.0};
  auto dp = te::build_dp_network(inst);
  cases::DpGapEvaluator eval(inst, cfg);
  auto oracle = cases::make_dp_oracle(dp, inst, cfg);
  ExplainOptions opts;
  opts.samples = 100;
  auto ex = explain_subspace(eval, fig1a_hot_region(), dp.net, oracle, opts);

  std::ostringstream os;
  print_heatmap(os, dp.net, ex);
  EXPECT_NE(os.str().find("Type-2 explanation"), std::string::npos);
  EXPECT_NE(os.str().find("heat"), std::string::npos);

  const std::string dot = heatmap_dot(dp.net, ex);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("color="), std::string::npos);

  const std::string path = "/tmp/xplain_test_heatmap.csv";
  write_heatmap_csv(path, dp.net, ex);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "edge,heat,benchmark_only,heuristic_only,both,neither");
}
