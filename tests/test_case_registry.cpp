// CaseRegistry semantics (satellite of the HeuristicCase redesign):
// built-in registrations, duplicate handling, unknown lookups, and the
// case-level input-space description.
#include <gtest/gtest.h>

#include <algorithm>

#include "cases/bf_case.h"
#include "cases/dp_case.h"
#include "cases/ff_case.h"
#include "cases/lb_case.h"
#include "scenario/spec.h"
#include "xplain/case.h"

using namespace xplain;

namespace {

scenario::ScenarioSpec line_spec(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

}  // namespace

TEST(CaseRegistry, BuiltInCasesAreRegistered) {
  auto names = registry().names();
  for (const char* expected : {"demand_pinning", "first_fit", "best_fit"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << expected << " missing from registry";
    EXPECT_TRUE(registry().contains(expected));
  }
}

TEST(CaseRegistry, FindReturnsWorkingCachedCase) {
  auto c = registry().find("demand_pinning");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name(), "demand_pinning");
  EXPECT_GT(c->network().num_edges(), 0);
  auto eval = c->make_evaluator();
  ASSERT_NE(eval, nullptr);
  EXPECT_EQ(eval->dim(), 3);  // Fig. 1a default
  // find() caches the default instance.
  EXPECT_EQ(c.get(), registry().find("demand_pinning").get());
  // create() hands out fresh instances instead.
  auto fresh = registry().create("demand_pinning");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(c.get(), fresh.get());
}

TEST(CaseRegistry, UnknownNameLookupIsNull) {
  EXPECT_EQ(registry().find("no_such_heuristic"), nullptr);
  EXPECT_EQ(registry().create("no_such_heuristic"), nullptr);
  EXPECT_EQ(registry().create("no_such_heuristic", line_spec(4)), nullptr);
  EXPECT_FALSE(registry().contains("no_such_heuristic"));
}

TEST(CaseRegistry, ScenarioBuiltCasesNeverPoisonTheDefaultCache) {
  // The stale-cache footgun the spec-parameterized redesign must avoid:
  // find(name) caches only the default instance and scenario builds come
  // from create(name, spec), so a scenario-built case can never be handed
  // out as the default.
  const auto default_before = registry().find("demand_pinning");
  ASSERT_NE(default_before, nullptr);
  EXPECT_EQ(default_before->make_evaluator()->dim(), 3);  // Fig. 1a

  const auto spec = line_spec(6);
  const auto scenario_built = registry().create("demand_pinning", spec);
  ASSERT_NE(scenario_built, nullptr);
  // DP from a scenario: 6 pairs over the generated line topology.
  EXPECT_EQ(scenario_built->make_evaluator()->dim(), 6);
  EXPECT_NE(scenario_built.get(), default_before.get());

  // The default slot is untouched.
  const auto default_after = registry().find("demand_pinning");
  EXPECT_EQ(default_after.get(), default_before.get());
  EXPECT_EQ(default_after->make_evaluator()->dim(), 3);

  // create(name, spec) always hands out fresh instances.
  const auto fresh = registry().create("demand_pinning", spec);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), scenario_built.get());

  // Specs whose human-readable name() collides (capacity is not part of
  // the label) still get distinct cache keys, which CaseMemo and the
  // service's result cache are keyed by.
  auto other = line_spec(6);
  other.capacity = 55.0;
  ASSERT_EQ(other.name(), spec.name());
  ASSERT_NE(other.cache_key(), spec.cache_key());
  const auto other_built = registry().create("demand_pinning", other);
  ASSERT_NE(other_built, nullptr);
  EXPECT_NE(other_built.get(), scenario_built.get());
}

TEST(CaseRegistry, AllBuiltInCasesBuildFromScenarios) {
  const auto spec = line_spec(5);
  for (const char* name :
       {"demand_pinning", "demand_pinning_chain", "first_fit", "best_fit",
        "wcmp"}) {
    const auto c = registry().create(name, spec);
    ASSERT_NE(c, nullptr) << name;
    auto eval = c->make_evaluator();
    ASSERT_NE(eval, nullptr) << name;
    EXPECT_GT(eval->dim(), 0) << name;
    EXPECT_FALSE(c->features().empty()) << name;
  }
  // VBP cases scale their ball count with the scenario size.
  EXPECT_EQ(registry().create("first_fit", spec)->make_evaluator()->dim(), 5);
  EXPECT_EQ(registry().create("best_fit", line_spec(3))
                ->make_evaluator()
                ->dim(),
            3);
}

TEST(CaseRegistry, ZeroArgFactoriesDeclineScenarios) {
  const std::string name = "default_only_test_case";
  registry().add(name, [] {
    return std::make_shared<cases::VbpCase>(cases::VbpCase::paper_instance());
  });
  EXPECT_NE(registry().find(name), nullptr);
  EXPECT_NE(registry().create(name), nullptr);
  // A default-only case refuses scenario-parameterized construction
  // instead of silently running its default under a scenario label.
  EXPECT_EQ(registry().create(name, line_spec(4)), nullptr);
  // ... and the declined scenario build did not poison the default slot.
  EXPECT_NE(registry().find(name), nullptr);
}

TEST(CaseRegistry, DuplicateRegistrationIsRejected) {
  ASSERT_TRUE(registry().contains("best_fit"));
  const auto before = registry().find("best_fit");
  // Re-registering an existing name fails and keeps the original factory.
  const bool added = registry().add(
      "best_fit", [] { return cases::DpCase::fig1a(); });
  EXPECT_FALSE(added);
  auto after = registry().create("best_fit");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->name(), "best_fit");  // still the Best-Fit case
  EXPECT_EQ(before.get(), registry().find("best_fit").get());
}

TEST(CaseRegistry, UserCasesPlugIn) {
  // The extension path: register a custom configuration under a new name.
  const std::string name = "ffd_5_balls_test_only";
  const bool added = registry().add(name, [] {
    vbp::VbpInstance inst;
    inst.num_balls = 5;
    inst.num_bins = 4;
    inst.dims = 1;
    inst.capacity = 1.0;
    return std::make_shared<cases::VbpCase>(
        inst, vbp::VbpHeuristic::kFirstFitDecreasing);
  });
  EXPECT_TRUE(added);
  auto c = registry().find(name);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name(), "first_fit_decreasing");
  EXPECT_EQ(c->make_evaluator()->dim(), 5);
}

TEST(HeuristicCase, InputSpaceDescription) {
  auto c = registry().find("best_fit");
  ASSERT_NE(c, nullptr);
  auto box = c->input_box();
  auto names = c->dim_names();
  EXPECT_EQ(box.dim(), 4);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "Y[0]");
  EXPECT_DOUBLE_EQ(box.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(box.hi[0], 1.0);
  // Features feed the Type-3 generalizer.
  auto f = c->features();
  EXPECT_EQ(f.at("num_balls"), 4.0);
}
