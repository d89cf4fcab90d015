// Tests for the Type-3 generalizer: grammar mining on controlled data, the
// DP instance family, and the guardrail against fabricated trends over an
// Engine grid.  (The end-to-end DP trend the paper predicts, increasing
// pinned-path length => larger gap, is Batch.FeedsTypeThreeGeneralization.)
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cases/ff_case.h"
#include "engine/engine.h"
#include "generalize/features.h"
#include "generalize/generalizer.h"
#include "generalize/instance_generator.h"
#include "util/random.h"

using namespace xplain::generalize;

TEST(Grammar, DetectsPlantedMonotoneTrend) {
  std::vector<InstanceObservation> obs;
  xplain::util::Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    InstanceObservation o;
    const double f = rng.uniform(0, 10);
    o.features["grows"] = f;
    o.features["shrinks"] = f;
    o.features["noise"] = rng.uniform(0, 10);
    o.max_gap = f + rng.normal(0, 0.5);
    obs.push_back(std::move(o));
  }
  // Make "shrinks" anti-correlated by flipping it.
  for (auto& o : obs) o.features["shrinks"] = 10.0 - o.features["shrinks"];

  auto preds = mine_predicates(obs);
  ASSERT_GE(preds.size(), 2u);
  bool found_inc = false, found_dec = false, found_noise = false;
  for (const auto& p : preds) {
    if (p.feature == "grows" && p.trend == Trend::kIncreasing)
      found_inc = true;
    if (p.feature == "shrinks" && p.trend == Trend::kDecreasing)
      found_dec = true;
    if (p.feature == "noise") found_noise = true;
  }
  EXPECT_TRUE(found_inc);
  EXPECT_TRUE(found_dec);
  EXPECT_FALSE(found_noise) << "uncorrelated features must not pass";
}

TEST(Grammar, PredicateToStringMatchesPaperStyle) {
  Predicate p;
  p.feature = "pinned_sp_hops";
  p.trend = Trend::kIncreasing;
  EXPECT_EQ(p.to_string(), "increasing(pinned_sp_hops)");
  p.trend = Trend::kDecreasing;
  EXPECT_EQ(p.to_string(), "decreasing(pinned_sp_hops)");
}

TEST(Grammar, NeedsEnoughObservations) {
  std::vector<InstanceObservation> two(2);
  EXPECT_TRUE(mine_predicates(two).empty());
}

TEST(InstanceGenerator, DpFamilyShape) {
  DpFamilyParams params;
  params.chain_len = 4;
  auto inst = make_dp_family_instance(params);
  // Pinned demand 0~>4 has a 4-hop shortest path and a detour.
  ASSERT_GE(inst.pairs.size(), 5u);
  EXPECT_EQ(inst.pairs[0].paths[0].hops(), 4);
  EXPECT_GE(inst.pairs[0].paths.size(), 2u);
  // Cross demands are single-path.
  for (std::size_t k = 1; k < inst.pairs.size(); ++k)
    EXPECT_EQ(inst.pairs[k].paths.size(), 1u);
}

TEST(InstanceGenerator, FeaturesTrackParameters) {
  DpFamilyParams a, b;
  a.chain_len = 2;
  b.chain_len = 5;
  xplain::te::DpConfig cfg{50};
  auto fa = dp_instance_features(make_dp_family_instance(a), cfg);
  auto fb = dp_instance_features(make_dp_family_instance(b), cfg);
  EXPECT_LT(fa.at("pinned_sp_max_hops"), fb.at("pinned_sp_max_hops"));
}

TEST(Generalizer, VbpEmitsNoSpuriousTrendOnFlatGaps) {
  // The pattern-search analyzer finds a 1-bin FF gap at every instance size
  // (multi-bin gaps need adversarial constructions beyond local search — the
  // paper's §5.2 scaling open question).  With a flat gap series the
  // generalizer's guardrail matters: it must NOT fabricate a trend.  One
  // Engine grid over 14 first-fit instances of 3-9 balls (bins = balls),
  // the ball counts a seeded uniform draw produced.
  xplain::CaseRegistry reg;
  xplain::ExperimentSpec spec;
  const int balls[] = {6, 7, 7, 8, 4, 5, 4, 6, 8, 6, 4, 4, 4, 9};
  for (int i = 0; i < 14; ++i) {
    xplain::vbp::VbpInstance inst;
    inst.num_balls = balls[i];
    inst.num_bins = balls[i];
    inst.dims = 1;
    inst.capacity = 1.0;
    const auto c = std::make_shared<xplain::cases::VbpCase>(inst);
    const std::string name = "vbp" + std::to_string(i);
    reg.add(name, [c] { return c; });
    spec.cases.push_back(name);
  }
  spec.options.min_gap = 1.0;  // FF gaps are whole bins
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;  // Type-3 only needs the gaps
  spec.normalize_gap = false;        // bin-count gaps are already comparable
  spec.seed = 99;
  const auto res = xplain::Engine(reg).run(spec);

  ASSERT_EQ(res.trends.observations.size(), spec.cases.size());
  // Every instance yields an adversarial input (FF always loses a bin
  // somewhere)...
  for (const auto& obs : res.trends.observations)
    EXPECT_GE(obs.max_gap, 1.0);
  // ...and no significant num_balls trend is claimed from the flat series.
  for (const auto& p : res.trends.predicates)
    EXPECT_NE(p.feature, "num_balls") << p.to_string();
}
