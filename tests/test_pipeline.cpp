// End-to-end pipeline tests (Fig. 3 wiring) through the HeuristicCase API:
// all three registered case studies produce significant subspaces with
// coherent explanations, and stage timings are populated.
#include <gtest/gtest.h>

#include "cases/dp_case.h"
#include "xplain/pipeline.h"

using namespace xplain;

TEST(Pipeline, DpEndToEndViaRegistry) {
  auto c = registry().find("demand_pinning");
  ASSERT_NE(c, nullptr);
  PipelineOptions opts;
  opts.min_gap = 40.0;
  opts.subspace.max_subspaces = 2;
  opts.explain.samples = 250;
  auto result = run_pipeline(*c, opts);

  EXPECT_EQ(result.case_name, "demand_pinning");
  ASSERT_GE(result.subspaces.size(), 1u);
  ASSERT_EQ(result.explanations.size(), result.subspaces.size());
  const auto& sub = result.subspaces[0];
  EXPECT_TRUE(sub.significant);
  EXPECT_LT(sub.p_value, 0.05);
  EXPECT_GE(sub.seed_gap, 40.0);
  EXPECT_GT(sub.mean_gap_inside, sub.mean_gap_outside);

  // Type-1 sanity: the pinnable demand's dimension is bounded by ~T inside
  // the subspace (DP only misbehaves when it can pin).
  EXPECT_LE(sub.region.box.lo[0], 50.0 + 1e-6);

  // Type-2 sanity: somewhere the benchmark-only signal exists.
  const auto& ex = result.explanations[0];
  double max_heat = -1, min_heat = 1;
  for (const auto& e : ex.edges) {
    max_heat = std::max(max_heat, e.heat);
    min_heat = std::min(min_heat, e.heat);
  }
  EXPECT_GT(max_heat, 0.3) << "some edge must be benchmark-preferred";
  EXPECT_LT(min_heat, -0.3) << "some edge must be heuristic-only";
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Pipeline, FfEndToEndViaRegistry) {
  auto c = registry().find("first_fit");
  ASSERT_NE(c, nullptr);
  PipelineOptions opts;
  opts.min_gap = 1.0;
  opts.subspace.max_subspaces = 2;
  opts.explain.samples = 200;
  auto result = run_pipeline(*c, opts);

  ASSERT_GE(result.subspaces.size(), 1u);
  const auto& sub = result.subspaces[0];
  EXPECT_TRUE(sub.significant);
  EXPECT_GE(sub.seed_gap, 1.0);  // at least one extra bin
  EXPECT_GE(result.explanations[0].samples_used, 50);
}

TEST(Pipeline, BestFitThirdCaseEndToEnd) {
  // The extensibility acceptance: Best-Fit runs through the identical
  // pipeline, purely via its registration in src/cases/bf_case.cpp.
  auto c = registry().find("best_fit");
  ASSERT_NE(c, nullptr);
  PipelineOptions opts;
  opts.min_gap = 1.0;
  opts.subspace.max_subspaces = 2;
  opts.explain.samples = 200;
  auto result = run_pipeline(*c, opts);

  ASSERT_GE(result.subspaces.size(), 1u);
  EXPECT_TRUE(result.subspaces[0].significant);
  EXPECT_GE(result.subspaces[0].seed_gap, 1.0);
  ASSERT_EQ(result.explanations.size(), result.subspaces.size());
  EXPECT_GE(result.explanations[0].samples_used, 50);
}

TEST(Pipeline, WcmpFourthCaseEndToEnd) {
  // The new-subsystem acceptance: the WCMP load-balancing case — a domain
  // from a different family than DP/FF/BF, on a generated fat-tree(4)
  // scenario — runs the identical pipeline purely via its registration in
  // src/cases/lb_case.cpp.
  auto c = registry().find("wcmp");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->input_box().dim(), 9);  // 8 commodity rates + cap_skew
  PipelineOptions opts;
  opts.min_gap = 20.0;
  opts.subspace.max_subspaces = 1;
  opts.explain.samples = 150;
  auto result = run_pipeline(*c, opts);

  EXPECT_EQ(result.case_name, "wcmp");
  ASSERT_GE(result.subspaces.size(), 1u);
  const auto& sub = result.subspaces[0];
  EXPECT_TRUE(sub.significant);
  EXPECT_GE(sub.seed_gap, 20.0);
  EXPECT_GT(sub.mean_gap_inside, sub.mean_gap_outside);
  ASSERT_EQ(result.explanations.size(), result.subspaces.size());
  EXPECT_GE(result.explanations[0].samples_used, 50);
  // Type-2 sanity: under contention some edge must be benchmark-preferred
  // (the optimal's detours) — the WCMP analogue of the DP heat check.
  double max_heat = -1;
  for (const auto& e : result.explanations[0].edges)
    max_heat = std::max(max_heat, e.heat);
  EXPECT_GT(max_heat, 0.3);
  // Type-3 feed is wired: LB features are exported.
  EXPECT_EQ(result.features.count("shared_link_degree"), 1u);
  EXPECT_EQ(result.features.count("skew_span"), 1u);
}

TEST(Pipeline, StageTimesArePopulated) {
  auto c = registry().find("demand_pinning");
  ASSERT_NE(c, nullptr);
  PipelineOptions opts;
  opts.min_gap = 40.0;
  opts.subspace.max_subspaces = 1;
  opts.explain.samples = 50;
  auto result = run_pipeline(*c, opts);
  EXPECT_GE(result.trace.analyzer_calls, 1);
  EXPECT_GT(result.trace.gap_evaluations, 100);
  EXPECT_GT(result.stages.analyze_seconds, 0.0);
  EXPECT_GT(result.stages.subspace_seconds, 0.0);
  EXPECT_GT(result.stages.explain_seconds, 0.0);
  EXPECT_LE(result.stages.total(), result.wall_seconds + 1e-6);
}

TEST(Pipeline, CustomCaseInstanceWithoutRegistry) {
  // Cases are plain objects too: a custom instance bypasses the registry.
  auto inst = te::TeInstance::fig1a_example();
  cases::DpCase c(inst, te::DpConfig{50.0});
  PipelineOptions opts;
  opts.min_gap = 40.0;
  opts.subspace.max_subspaces = 1;
  opts.explain.samples = 100;
  auto result = run_pipeline(c, opts);
  ASSERT_GE(result.subspaces.size(), 1u);
  EXPECT_FALSE(result.features.empty());
  EXPECT_DOUBLE_EQ(result.gap_scale, inst.d_max);
}
