// Experiment engine: grid expansion semantics, bitwise determinism across
// XPLAIN_WORKERS settings (the acceptance criterion: a >= 6-job grid is
// identical for any worker count), ExperimentResult JSON round-trips, the
// wcmp-over-corpus Type-3 path, and loud failure for jobs that cannot
// build or whose build throws — confined to those jobs, and reported
// exactly as server::Service reports it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases/ff_case.h"
#include "engine/engine.h"
#include "scenario/scenario.h"
#include "server/service.h"
#include "util/json.h"

using namespace xplain;

namespace {

scenario::ScenarioSpec line(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

scenario::ScenarioSpec star(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kStar;
  s.size = n;
  return s;
}

scenario::ScenarioSpec fat_tree(int k, std::uint64_t seed = 1) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kFatTree;
  s.size = k;
  s.seed = seed;
  return s;
}

/// A cheap >= 6-job grid: two VBP cases and the DP chain family over three
/// scenario sizes (small instances, analyzer-dominated cost).
ExperimentSpec small_grid() {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "demand_pinning_chain"};
  spec.scenarios = {line(3), line(4), line(5)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 60;
  spec.grammar.p_threshold = 0.5;
  return spec;
}

void expect_same_results(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& ra = a.jobs[i];
    const auto& rb = b.jobs[i];
    EXPECT_EQ(ra.job.label(), rb.job.label()) << "job " << i;
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.error, rb.error);
    EXPECT_DOUBLE_EQ(ra.pipeline.best_gap_found, rb.pipeline.best_gap_found);
    ASSERT_EQ(ra.pipeline.subspaces.size(), rb.pipeline.subspaces.size())
        << "job " << i;
    for (std::size_t s = 0; s < ra.pipeline.subspaces.size(); ++s) {
      const auto& sa = ra.pipeline.subspaces[s];
      const auto& sb = rb.pipeline.subspaces[s];
      EXPECT_EQ(sa.seed, sb.seed) << "job " << i << " subspace " << s;
      EXPECT_DOUBLE_EQ(sa.seed_gap, sb.seed_gap);
      EXPECT_DOUBLE_EQ(sa.p_value, sb.p_value);
      EXPECT_EQ(sa.region.box.lo, sb.region.box.lo);
      EXPECT_EQ(sa.region.box.hi, sb.region.box.hi);
      EXPECT_EQ(sa.significant, sb.significant);
    }
    ASSERT_EQ(ra.pipeline.explanations.size(), rb.pipeline.explanations.size());
    for (std::size_t e = 0; e < ra.pipeline.explanations.size(); ++e) {
      EXPECT_EQ(ra.pipeline.explanations[e].samples_used,
                rb.pipeline.explanations[e].samples_used);
      ASSERT_EQ(ra.pipeline.explanations[e].edges.size(),
                rb.pipeline.explanations[e].edges.size());
      for (std::size_t k = 0; k < ra.pipeline.explanations[e].edges.size(); ++k)
        EXPECT_DOUBLE_EQ(ra.pipeline.explanations[e].edges[k].heat,
                         rb.pipeline.explanations[e].edges[k].heat);
    }
    EXPECT_EQ(ra.pipeline.features, rb.pipeline.features);
  }
  EXPECT_EQ(a.trace.analyzer_calls, b.trace.analyzer_calls);
  EXPECT_EQ(a.trace.gap_evaluations, b.trace.gap_evaluations);
  ASSERT_EQ(a.trends.predicates.size(), b.trends.predicates.size());
  for (std::size_t p = 0; p < a.trends.predicates.size(); ++p) {
    EXPECT_EQ(a.trends.predicates[p].to_string(),
              b.trends.predicates[p].to_string());
    EXPECT_DOUBLE_EQ(a.trends.predicates[p].rho, b.trends.predicates[p].rho);
    EXPECT_DOUBLE_EQ(a.trends.predicates[p].p_value,
                     b.trends.predicates[p].p_value);
  }
}

/// Wall time is the one legitimately nondeterministic field of a fresh
/// run; zero it when comparing two executors' output.
ExperimentSummary scrub_wall(ExperimentSummary s) {
  s.wall_seconds = 0.0;
  for (JobSummary& j : s.jobs) j.wall_seconds = 0.0;
  return s;
}

struct EnvGuard {
  ~EnvGuard() { unsetenv("XPLAIN_WORKERS"); }
};

}  // namespace

TEST(Engine, ExpandIsTheCanonicalGridOrder) {
  ExperimentSpec spec;
  spec.cases = {"a", "b"};
  spec.scenarios = {line(3), star(4)};
  const auto jobs = Engine().expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].label(), "a@line_n3_s1");
  EXPECT_EQ(jobs[1].label(), "a@star_n4_s1");
  EXPECT_EQ(jobs[2].label(), "b@line_n3_s1");
  EXPECT_EQ(jobs[3].label(), "b@star_n4_s1");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(jobs[i].index, i);

  // Empty grid: one default-instance job per case.
  spec.scenarios.clear();
  const auto defaults = Engine().expand(spec);
  ASSERT_EQ(defaults.size(), 2u);
  EXPECT_EQ(defaults[0].label(), "a@default");
  EXPECT_FALSE(defaults[0].scenario.has_value());
}

TEST(Engine, ExpandPutsOptionVariantsInnermost) {
  ExperimentSpec spec;
  spec.cases = {"a", "b"};
  spec.scenarios = {line(3)};
  spec.option_variants.resize(2);
  spec.option_variants[0].subspace.max_subspaces = 1;
  spec.option_variants[1].subspace.max_subspaces = 3;
  const auto jobs = Engine().expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].label(), "a@line_n3_s1#o0");
  EXPECT_EQ(jobs[1].label(), "a@line_n3_s1#o1");
  EXPECT_EQ(jobs[2].label(), "b@line_n3_s1#o0");
  EXPECT_EQ(jobs[3].label(), "b@line_n3_s1#o1");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].option_index, i % 2);
    // The variant is recoverable from the index alone — the purity property
    // the server's job replay leans on.
    std::uint64_t seed = 0;
    const PipelineOptions o = derived_job_options(spec, jobs[i].index, &seed);
    ExperimentSpec base = spec;
    base.options = spec.option_variants[i % 2];
    base.option_variants.clear();
    EXPECT_EQ(o.fingerprint(),
              derived_job_options(base, jobs[i].index).fingerprint())
        << "job " << i;
  }
  // No variants: no #o suffix and option_index stays -1.
  spec.option_variants.clear();
  const auto flat = Engine().expand(spec);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].label(), "a@line_n3_s1");
  EXPECT_EQ(flat[0].option_index, -1);
  // Variants also multiply default-instance jobs (empty scenario grid).
  spec.scenarios.clear();
  spec.option_variants.resize(3);
  EXPECT_EQ(Engine().expand(spec).size(), 6u);
}

TEST(Engine, OptionAxisRunsEveryVariant) {
  // One case, one scenario, two variants: analyzer budget 1 vs 2 subspaces
  // and explainer off vs on — the fuzzer's cheap-probe/deep-run split in
  // miniature.
  ExperimentSpec spec;
  spec.cases = {"demand_pinning_chain"};
  spec.scenarios = {line(4)};
  spec.run_generalizer = false;
  spec.option_variants.resize(2);
  spec.option_variants[0].subspace.max_subspaces = 1;
  spec.option_variants[0].explain.samples = 0;
  spec.option_variants[1].subspace.max_subspaces = 2;
  spec.option_variants[1].explain.samples = 60;
  const auto res = Engine().run(spec);
  ASSERT_EQ(res.jobs.size(), 2u);
  for (const auto& j : res.jobs) EXPECT_TRUE(j.ok) << j.error;
  // Each job carries its own variant's fingerprint (distinct cache keys).
  EXPECT_EQ(res.jobs[0].options_fingerprint,
            apply_seed_salt(spec.option_variants[0], res.jobs[0].seed)
                .fingerprint());
  EXPECT_EQ(res.jobs[1].options_fingerprint,
            apply_seed_salt(spec.option_variants[1], res.jobs[1].seed)
                .fingerprint());
  EXPECT_NE(res.jobs[0].options_fingerprint, res.jobs[1].options_fingerprint);
  // The probe variant (samples=0) measures gaps without sampling stories.
  for (const auto& e : res.jobs[0].pipeline.explanations)
    EXPECT_EQ(e.samples_used, 0);
  EXPECT_LE(res.jobs[0].pipeline.subspaces.size(), 1u);
  // Both probed the same instance, so both report identical features.
  EXPECT_EQ(res.jobs[0].pipeline.features, res.jobs[1].pipeline.features);
  // The scenario instance is built once and shared across the variant axis.
  EXPECT_EQ(res.case_builds, 1);
}

TEST(Engine, GridIsBitwiseDeterministicAcrossWorkerCounts) {
  const auto spec = small_grid();  // workers = 0: resolves via env
  ASSERT_GE(Engine().expand(spec).size(), 6u);

  EnvGuard guard;
  setenv("XPLAIN_WORKERS", "1", 1);
  const auto sequential = Engine().run(spec);
  setenv("XPLAIN_WORKERS", "4", 1);
  const auto parallel4 = Engine().run(spec);
  expect_same_results(sequential, parallel4);

  // An explicit worker count gives the same results again.
  unsetenv("XPLAIN_WORKERS");
  ExperimentSpec explicit_spec = spec;
  explicit_spec.workers = 3;
  expect_same_results(sequential, Engine().run(explicit_spec));
}

TEST(Engine, PerJobLpCountersAreExactUnderConcurrentWorkers) {
  // Per-job LP counters come from thread-inclusive counter
  // deltas (solver::lp_counters): with one worker per job slot they must be
  // identical to the sequential run — no bleed between concurrent jobs —
  // and nonzero for any job that actually solved LPs.
  const auto spec = small_grid();

  EnvGuard guard;
  setenv("XPLAIN_WORKERS", "1", 1);
  const auto sequential = Engine().run(spec).summary();
  setenv("XPLAIN_WORKERS", "4", 1);
  const auto parallel4 = Engine().run(spec).summary();

  ASSERT_EQ(sequential.jobs.size(), parallel4.jobs.size());
  solver::LpCounters sequential_total;
  solver::LpCounters parallel_total;
  for (std::size_t i = 0; i < sequential.jobs.size(); ++i) {
    EXPECT_EQ(sequential.jobs[i].lp, parallel4.jobs[i].lp) << "job " << i;
    sequential_total += sequential.jobs[i].lp;
    parallel_total += parallel4.jobs[i].lp;
  }
  EXPECT_GT(sequential_total.solves, 0);
  // Any pivot prices at least one column, so the pricing tally is live.
  EXPECT_GT(sequential_total.columns_priced, 0);
  // The experiment-level total is the per-job sum, every digest counter.
  EXPECT_EQ(sequential.lp, sequential_total);
  EXPECT_EQ(parallel4.lp, parallel_total);
  EXPECT_EQ(parallel4.lp, sequential.lp);
}

TEST(Engine, StreamsEveryJobThroughTheCallback) {
  const auto spec = small_grid();
  std::vector<std::string> labels;
  auto res = Engine().run(spec, [&](const JobResult& j) {
    labels.push_back(j.job.label());
  });
  ASSERT_EQ(labels.size(), res.jobs.size());
  // Completion order is scheduling-dependent; the set of labels is not.
  std::sort(labels.begin(), labels.end());
  std::vector<std::string> expected;
  for (const auto& j : res.jobs) expected.push_back(j.job.label());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(labels, expected);
}

TEST(Engine, SeedDecorrelatesReplications) {
  auto spec = small_grid();
  spec.cases = {"demand_pinning_chain"};
  const auto a = Engine().run(spec);
  auto spec_b = spec;
  spec_b.seed = 99;
  const auto b = Engine().run(spec_b);
  // Same grid, different experiment seed: at least one job's analyzer
  // trace must differ (the RNG streams are decorrelated).
  bool any_difference = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    if (a.jobs[i].pipeline.trace.gap_evaluations !=
        b.jobs[i].pipeline.trace.gap_evaluations)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(Engine, WcmpOverCorpusFeedsTypeThree) {
  // The generic factory path: WCMP sweeps scenarios with no bespoke
  // lb_case_factory adapter — features flow into generalize_batch inside
  // Engine::run.
  ExperimentSpec spec;
  spec.cases = {"wcmp"};
  spec.scenarios = {fat_tree(4), line(6), star(8)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;  // Type-3 only needs the gaps
  spec.grammar.p_threshold = 1.1;    // keep every mined trend: smoke only
  auto res = Engine().run(spec);

  ASSERT_EQ(res.jobs.size(), 3u);
  for (const auto& j : res.jobs) {
    EXPECT_TRUE(j.ok) << j.job.label() << ": " << j.error;
    EXPECT_FALSE(j.pipeline.features.empty()) << j.job.label();
    EXPECT_GT(j.pipeline.features.at("num_commodities"), 0.0);
  }
  // Every ok job with features becomes one Type-3 observation.
  EXPECT_EQ(res.trends.observations.size(), 3u);
  // The fat-tree job must show a real WCMP-vs-optimal gap.
  EXPECT_GT(res.jobs[0].pipeline.best_gap_found, 0.0);
}

TEST(Engine, UnknownAndDefaultOnlyCasesFailLoudly) {
  const std::string name = "engine_default_only_case";
  registry().add(name, [] {
    vbp::VbpInstance inst;
    inst.num_balls = 3;
    inst.num_bins = 2;
    inst.dims = 1;
    inst.capacity = 1.0;
    return std::make_shared<cases::VbpCase>(inst);
  });

  ExperimentSpec spec;
  spec.cases = {"no_such_case", name};
  spec.scenarios = {line(4)};
  spec.options.explain.samples = 0;
  spec.run_generalizer = false;
  auto res = Engine().run(spec);
  ASSERT_EQ(res.jobs.size(), 2u);
  EXPECT_FALSE(res.jobs[0].ok);
  EXPECT_EQ(res.jobs[0].error, "unknown case");
  EXPECT_FALSE(res.jobs[1].ok);
  EXPECT_NE(res.jobs[1].error.find("default-only"), std::string::npos);
  // The same case still runs fine on its default instance.
  ExperimentSpec default_spec;
  default_spec.cases = {name};
  default_spec.options.explain.samples = 0;
  default_spec.run_generalizer = false;
  auto ok_res = Engine().run(default_spec);
  ASSERT_EQ(ok_res.jobs.size(), 1u);
  EXPECT_TRUE(ok_res.jobs[0].ok);
}

TEST(Engine, ThrowingJobFailsAloneAndMatchesTheService) {
  // One job path serves both executors: a factory that throws fails its own
  // jobs with the same "job threw:" error the service reports, and every
  // other job in the grid still completes.
  CaseRegistry reg;
  reg.add("vbp", CaseRegistry::Factory(
                     [](const scenario::ScenarioSpec* spec)
                         -> std::shared_ptr<HeuristicCase> {
                       return std::make_shared<cases::VbpCase>(
                           spec ? cases::VbpCase::scenario_instance(*spec)
                                : cases::VbpCase::paper_instance());
                     }));
  reg.add("throws", CaseRegistry::Factory(
                        [](const scenario::ScenarioSpec*)
                            -> std::shared_ptr<HeuristicCase> {
                          throw std::runtime_error("injected build failure");
                        }));
  ExperimentSpec spec;
  spec.cases = {"vbp", "throws"};
  spec.scenarios = {line(3), line(4)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 20;
  spec.grammar.p_threshold = 1.1;  // keep every mined trend: smoke only
  spec.workers = 2;

  const ExperimentResult res = Engine(reg).run(spec);
  ASSERT_EQ(res.jobs.size(), 4u);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(res.jobs[i].ok) << res.jobs[i].error;
  for (int i = 2; i < 4; ++i) {
    EXPECT_FALSE(res.jobs[i].ok);
    EXPECT_EQ(res.jobs[i].error, "job threw: injected build failure");
  }
  EXPECT_EQ(res.trends.observations.size(), 2u);

  server::ServiceOptions o;
  o.workers = 2;
  server::Service svc(o, reg);
  EXPECT_TRUE(scrub_wall(res.summary()) == scrub_wall(svc.run(spec)));
}

TEST(Engine, ExperimentSummaryJsonRoundTripsExactly) {
  // Synthetic summary with adversarial content: quotes, newlines,
  // non-representable-in-decimal doubles, empty and missing fields.
  ExperimentSummary s;
  JobSummary j;
  j.case_name = "wcmp";
  j.scenario = "fat_tree_k4_s1";
  j.index = 0;
  j.ok = true;
  j.subspaces = 2;
  j.significant = 1;
  j.best_gap_found = 1.0 / 3.0;
  j.max_seed_gap = 66.04357334190792;
  j.gap_scale = 100.0;
  j.wall_seconds = 0.123456789123456789;
  j.lp.solves = 12345;
  j.lp.iterations = 987654321;
  j.lp.columns_priced = 31415926535;
  j.lp.candidate_refills = 271828;
  j.features = {{"num_commodities", 8.0}, {"skew_span", 0.75}};
  s.jobs.push_back(j);
  JobSummary bad;
  bad.case_name = "odd \"name\"\nwith newline";
  bad.index = 1;
  bad.ok = false;
  bad.error = "case cannot build from a scenario (default-only registration)";
  s.jobs.push_back(bad);
  TrendSummary t;
  t.predicate = "increasing(pinned_sp_hops)";
  t.feature = "pinned_sp_hops";
  t.increasing = true;
  t.rho = 0.9784922871473329;
  t.p_value = 1.7481490558e-08;
  t.support = 12;
  s.trends.push_back(t);
  s.observations = 12;
  s.wall_seconds = 7.739930840000001;
  s.lp.solves = 112202;
  s.lp.iterations = 713712;
  s.lp.columns_priced = 8675309;
  s.lp.candidate_refills = 424242;

  const std::string json = s.to_json();
  const auto parsed = ExperimentSummary::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(s == *parsed);
  // And the serialization itself is stable under a round trip.
  EXPECT_EQ(json, parsed->to_json());

  // The digest is a wire format (the server caches and journals it, and
  // its byte size drives cache eviction): these bytes are pinned.
  const std::string job_golden =
      R"({"case":"wcmp","scenario":"fat_tree_k4_s1","index":0,"ok":true,)"
      R"("subspaces":2,"significant":1,"best_gap_found":0.3333333333333333,)"
      R"("max_seed_gap":66.04357334190792,"gap_scale":100,)"
      R"("wall_seconds":0.12345678912345678,"lp_solves":12345,)"
      R"("lp_iterations":987654321,"lp_columns_priced":31415926535,)"
      R"("lp_candidate_refills":271828,"seed":"0","options_fingerprint":"",)"
      R"("features":{"num_commodities":8,"skew_span":0.75}})";
  EXPECT_EQ(s.jobs[0].to_json_value().dump(0), job_golden);
  EXPECT_EQ(
      s.to_json(0),
      R"({"jobs":[)" + job_golden +
          R"(,{"case":"odd \"name\"\nwith newline","scenario":null,)"
          R"("index":1,"ok":false,"error":"case cannot build from a )"
          R"j(scenario (default-only registration)","subspaces":0,)j"
          R"("significant":0,"best_gap_found":0,"max_seed_gap":0,)"
          R"("gap_scale":1,"wall_seconds":0,"lp_solves":0,"lp_iterations":0,)"
          R"("lp_columns_priced":0,"lp_candidate_refills":0,"seed":"0",)"
          R"("options_fingerprint":"","features":{}}],"trends":[)"
          R"j({"predicate":"increasing(pinned_sp_hops)",)j"
          R"("feature":"pinned_sp_hops","trend":"increasing",)"
          R"("rho":0.9784922871473329,"p_value":1.7481490558e-08,)"
          R"("support":12}],"observations":12,)"
          R"("wall_seconds":7.739930840000001,"lp_solves":112202,)"
          R"("lp_iterations":713712,"lp_columns_priced":8675309,)"
          R"("lp_candidate_refills":424242})");

  // warm_solves is not a digest counter: not written, not compared.
  JobSummary warm = j;
  warm.lp.warm_solves = 7;
  EXPECT_EQ(warm.to_json_value().dump(0), job_golden);
  EXPECT_TRUE(warm == j);
}

TEST(Engine, JobSummaryParserRejectsOutOfRangeIntegers) {
  // from_json_value reads journal lines on every cache hit: an integer
  // field holding a fraction or a value outside its type is malformed
  // input (std::nullopt, which the cache self-heals), never a cast.
  const auto parse = [](const std::string& text) {
    const auto v = util::Json::parse(text);
    return v ? JobSummary::from_json_value(*v) : std::nullopt;
  };
  EXPECT_TRUE(parse(R"({"case":"x","index":1})").has_value());
  EXPECT_FALSE(parse(R"({"case":"x","index":1e300})").has_value());
  EXPECT_FALSE(parse(R"({"case":"x","index":1.5})").has_value());
  EXPECT_FALSE(parse(R"({"case":"x","subspaces":-3e9})").has_value());
  EXPECT_FALSE(parse(R"({"case":"x","lp_solves":1e19})").has_value());
  EXPECT_FALSE(ExperimentSummary::from_json(
                   R"({"jobs":[],"trends":[],"observations":1e300})")
                   .has_value());
}

TEST(Engine, RealExperimentJsonRoundTrips) {
  auto spec = small_grid();
  spec.cases = {"first_fit"};
  const auto res = Engine().run(spec);
  const auto summary = res.summary();
  const auto parsed = ExperimentSummary::from_json(res.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(summary == *parsed);
}

TEST(UtilJson, NumbersRoundTripIncludingExtremes) {
  // 1e19 exceeds long long range (the integer fast path must range-check
  // before casting); the others stress shortest-form round-tripping.
  for (double v : {1e19, -1e19, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                   0.1, -0.0, 1e15}) {
    const util::Json j(v);
    const auto parsed = util::Json::parse(j.dump());
    ASSERT_TRUE(parsed.has_value()) << v;
    EXPECT_EQ(parsed->as_num(), v) << v;
  }
  // Non-finite values serialize as null (JSON has no NaN/Inf) and bare
  // inf/nan tokens are rejected on input.
  EXPECT_EQ(util::Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_FALSE(util::Json::parse("inf").has_value());
  EXPECT_FALSE(util::Json::parse("nan").has_value());
}

TEST(UtilJson, ReadIntAcceptsOnlyWholeNumbersInRange) {
  using util::Json;
  // read_int of {"v": value} into a T: the value read, or nullopt when
  // rejected.
  const auto read = [](Json value, auto out) {
    Json obj = Json::object();
    obj.set("v", std::move(value));
    return obj.read_int("v", &out) ? std::optional(out) : std::nullopt;
  };
  EXPECT_EQ(read(42, 0), 42);
  EXPECT_EQ(read(-0.0, 7), 0);
  EXPECT_EQ(read(2147483647.0, 0), 2147483647);
  EXPECT_EQ(read(-2147483648.0, 0), -2147483647 - 1);
  EXPECT_FALSE(read(2147483648.0, 0));
  EXPECT_FALSE(read(-2147483649.0, 0));
  EXPECT_FALSE(read(1e300, 0));
  EXPECT_FALSE(read(0.5, 0));
  EXPECT_FALSE(read(std::numeric_limits<double>::infinity(), 0L));
  EXPECT_FALSE(read(std::nan(""), 0L));
  EXPECT_FALSE(read(true, 0));
  EXPECT_FALSE(read(Json(), 0));
  // Decimal strings carry integers past 2^53 exactly; nothing else in a
  // string is an integer.
  EXPECT_EQ(read("18446744073709551615", std::uint64_t{0}),
            std::uint64_t{18446744073709551615ull});
  EXPECT_EQ(read("-12", 0), -12);
  EXPECT_FALSE(read("18446744073709551616", std::uint64_t{0}));
  EXPECT_FALSE(read("-1", std::uint64_t{0}));
  EXPECT_FALSE(read("", 0));
  EXPECT_FALSE(read(" 7", 0));
  EXPECT_FALSE(read("7x", 0));
  EXPECT_FALSE(read(-1.0, std::uint64_t{0}));
  // 2^64 is an exact double, one past uint64's range.
  EXPECT_FALSE(read(18446744073709551616.0, std::uint64_t{0}));
  EXPECT_EQ(read(9007199254740992.0, std::uint64_t{0}),
            std::uint64_t{9007199254740992});
  // An absent key leaves the target alone.
  int untouched = 5;
  EXPECT_TRUE(Json::object().read_int("v", &untouched));
  EXPECT_EQ(untouched, 5);
}

TEST(UtilJson, ParseRejectsMalformedDocuments) {
  using util::Json;
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  ASSERT_TRUE(Json::parse("  {\"a\": [1, 2.5e3, true, null]} ").has_value());
}

TEST(UtilJson, ParseRejectsHostileNestingWithoutRecursingAway) {
  using util::Json;
  // 200k unclosed arrays: rejected at the nesting bound, not by running
  // the recursive descent off the end of the stack.
  EXPECT_FALSE(Json::parse(std::string(200000, '[')).has_value());
  // Balanced but absurdly deep is rejected the same way...
  EXPECT_FALSE(
      Json::parse(std::string(5000, '[') + std::string(5000, ']')).has_value());
  // ...while ordinary nesting still parses.
  const auto ok = Json::parse(std::string(64, '[') + std::string(64, ']'));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->kind(), Json::Kind::kArray);
}
