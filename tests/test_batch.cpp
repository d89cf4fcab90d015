// Batched runs over hand-built instances: Engine::run over a test-local
// CaseRegistry holding eight custom DP/VBP cases.  Determinism across
// worker counts (>= 8 instances on 4 workers == 1 worker), equality with a
// hand-rolled run_pipeline per case, and the Type-3 feed into the
// generalizer.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cases/dp_case.h"
#include "cases/ff_case.h"
#include "engine/engine.h"
#include "generalize/generalizer.h"
#include "generalize/instance_generator.h"

using namespace xplain;

namespace {

/// Registers one hand-built instance under `name` as a default-only case
/// and returns the name.
std::string add_case(CaseRegistry& reg, const std::string& name,
                     std::shared_ptr<HeuristicCase> c) {
  reg.add(name, [c] { return c; });
  return name;
}

std::shared_ptr<HeuristicCase> dp_chain(int chain_len, double detour_cap) {
  generalize::DpFamilyParams params;
  params.chain_len = chain_len;
  params.detour_capacity = detour_cap;
  return std::make_shared<cases::DpCase>(
      generalize::make_dp_family_instance(params),
      te::DpConfig{params.threshold});
}

/// 8 instances across two families: 4 DP chain-with-detour WANs of growing
/// pinned-path length, 4 VBP first-fit instances of growing ball count.
std::vector<std::string> mixed_cases(CaseRegistry& reg) {
  std::vector<std::string> names;
  for (int chain_len = 2; chain_len <= 5; ++chain_len) {
    generalize::DpFamilyParams params;
    names.push_back(add_case(reg, "dp_chain" + std::to_string(chain_len),
                             dp_chain(chain_len, params.detour_capacity)));
  }
  for (int balls = 3; balls <= 6; ++balls) {
    vbp::VbpInstance inst;
    inst.num_balls = balls;
    inst.num_bins = balls - 1;
    inst.dims = 1;
    inst.capacity = 1.0;
    names.push_back(add_case(reg, "vbp_balls" + std::to_string(balls),
                             std::make_shared<cases::VbpCase>(inst)));
  }
  return names;
}

PipelineOptions fast_opts() {
  PipelineOptions opts;
  opts.min_gap = 1.0;
  opts.subspace.max_subspaces = 1;
  opts.explain.samples = 60;
  return opts;
}

void expect_same_results(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_TRUE(a.jobs[i].ok) << a.jobs[i].error;
    const auto& ra = a.jobs[i].pipeline;
    const auto& rb = b.jobs[i].pipeline;
    EXPECT_EQ(ra.case_name, rb.case_name) << "instance " << i;
    ASSERT_EQ(ra.subspaces.size(), rb.subspaces.size()) << "instance " << i;
    for (std::size_t s = 0; s < ra.subspaces.size(); ++s) {
      const auto& sa = ra.subspaces[s];
      const auto& sb = rb.subspaces[s];
      EXPECT_EQ(sa.seed, sb.seed) << "instance " << i << " subspace " << s;
      EXPECT_DOUBLE_EQ(sa.seed_gap, sb.seed_gap);
      EXPECT_DOUBLE_EQ(sa.p_value, sb.p_value);
      EXPECT_EQ(sa.region.box.lo, sb.region.box.lo);
      EXPECT_EQ(sa.region.box.hi, sb.region.box.hi);
      EXPECT_EQ(sa.significant, sb.significant);
    }
    ASSERT_EQ(ra.explanations.size(), rb.explanations.size());
    for (std::size_t e = 0; e < ra.explanations.size(); ++e) {
      EXPECT_EQ(ra.explanations[e].samples_used,
                rb.explanations[e].samples_used);
      ASSERT_EQ(ra.explanations[e].edges.size(),
                rb.explanations[e].edges.size());
      for (std::size_t k = 0; k < ra.explanations[e].edges.size(); ++k)
        EXPECT_DOUBLE_EQ(ra.explanations[e].edges[k].heat,
                         rb.explanations[e].edges[k].heat);
    }
    EXPECT_EQ(ra.trace.analyzer_calls, rb.trace.analyzer_calls);
    EXPECT_EQ(ra.trace.gap_evaluations, rb.trace.gap_evaluations);
  }
  EXPECT_EQ(a.trace.analyzer_calls, b.trace.analyzer_calls);
  EXPECT_EQ(a.trace.gap_evaluations, b.trace.gap_evaluations);
}

}  // namespace

TEST(Batch, FourWorkersMatchSequentialLoop) {
  CaseRegistry reg;
  ExperimentSpec spec;
  spec.cases = mixed_cases(reg);
  ASSERT_GE(spec.cases.size(), 8u);
  spec.options = fast_opts();
  spec.run_generalizer = false;

  spec.workers = 4;
  const auto par = Engine(reg).run(spec);
  spec.workers = 1;
  const auto seq = Engine(reg).run(spec);
  expect_same_results(par, seq);
}

TEST(Batch, MatchesHandRolledSequentialPipelines) {
  // A grid is exactly "run_pipeline per instance": nothing is shared,
  // reordered, or lost across workers.
  CaseRegistry reg;
  ExperimentSpec spec;
  spec.cases = mixed_cases(reg);
  spec.options = fast_opts();
  spec.reseed_jobs = false;  // compare against the options verbatim
  spec.workers = 4;
  spec.run_generalizer = false;
  const auto par = Engine(reg).run(spec);

  ASSERT_EQ(par.jobs.size(), spec.cases.size());
  int total = 0;
  for (std::size_t i = 0; i < spec.cases.size(); ++i) {
    ASSERT_TRUE(par.jobs[i].ok) << par.jobs[i].error;
    const auto solo = run_pipeline(*reg.find(spec.cases[i]), spec.options);
    const auto& got = par.jobs[i].pipeline;
    ASSERT_EQ(got.subspaces.size(), solo.subspaces.size());
    for (std::size_t s = 0; s < solo.subspaces.size(); ++s) {
      EXPECT_EQ(got.subspaces[s].seed, solo.subspaces[s].seed);
      EXPECT_DOUBLE_EQ(got.subspaces[s].seed_gap, solo.subspaces[s].seed_gap);
    }
    total += static_cast<int>(solo.subspaces.size());
  }
  EXPECT_EQ(par.total_subspaces(), total);
}

TEST(Batch, FeedsTypeThreeGeneralization) {
  // DP-only grid over the chain family: the mined predicates must include
  // the paper's increasing(pinned path length) trend.
  CaseRegistry reg;
  ExperimentSpec spec;
  for (int chain_len = 2; chain_len <= 5; ++chain_len)
    for (double detour_cap : {40.0, 50.0})
      spec.cases.push_back(add_case(
          reg,
          "dp_chain" + std::to_string(chain_len) + "_detour" +
              std::to_string(static_cast<int>(detour_cap)),
          dp_chain(chain_len, detour_cap)));
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;  // Type-3 only needs the gaps
  spec.grammar.p_threshold = 0.2;    // 8 observations: modest power
  spec.workers = 4;
  const auto res = Engine(reg).run(spec);

  ASSERT_EQ(res.trends.observations.size(), spec.cases.size());
  bool found_hops = false;
  for (const auto& p : res.trends.predicates)
    if ((p.feature == "pinned_sp_hops" || p.feature == "pinned_sp_max_hops") &&
        p.trend == generalize::Trend::kIncreasing)
      found_hops = true;
  EXPECT_TRUE(found_hops)
      << "increasing(pinned path length) should emerge from the grid";
}
