// Tests for the scenario fuzzer subsystem (src/search/): mutation is a
// pure function of (parent, seed), coverage bucketing and the archive are
// bitwise deterministic for any worker count, and the committed discovery
// corpus (bench/corpus/discovered.json) replays exactly.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "search/fuzzer.h"

using namespace xplain;
using namespace xplain::search;
using scenario::ScenarioSpec;
using scenario::TopologyKind;

namespace {

ScenarioSpec waxman_parent() {
  ScenarioSpec s;
  s.kind = TopologyKind::kWaxman;
  s.size = 12;
  s.seed = 7;
  return s;
}

ScenarioSpec fat_tree_parent() {
  ScenarioSpec s;
  s.kind = TopologyKind::kFatTree;
  s.size = 4;
  return s;
}

Discovery make_discovery(const std::string& case_name, int size,
                         double norm_gap, const std::string& bucket) {
  Discovery d;
  d.case_name = case_name;
  d.spec = fat_tree_parent();
  d.spec.size = size;
  d.gap = norm_gap * 100.0;
  d.norm_gap = norm_gap;
  d.bucket = bucket;
  d.options_fingerprint = "pf1;test";
  return d;
}

}  // namespace

TEST(Mutator, IsAPureFunctionOfParentAndSeed) {
  const ScenarioSpec parent = waxman_parent();
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull, ~0ull}) {
    const Mutant a = mutate(parent, seed);
    const Mutant b = mutate(parent, seed);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.spec.cache_key(), b.spec.cache_key());
  }
  // Different seeds explore: 64 draws must not all collapse to one spec.
  std::set<std::string> keys;
  for (std::uint64_t seed = 0; seed < 64; ++seed)
    keys.insert(mutate(parent, seed).spec.cache_key());
  EXPECT_GT(keys.size(), 8u);
}

TEST(Mutator, EveryMutantLandsInsideTheLimits) {
  MutatorLimits limits;
  std::vector<ScenarioSpec> pool = {waxman_parent(), fat_tree_parent()};
  // Walk a mutation chain so limits are exercised from the boundaries too.
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const ScenarioSpec& parent = pool[seed % pool.size()];
    const ScenarioSpec m = mutate(parent, seed, limits).spec;
    if (m.kind == TopologyKind::kFatTree) {
      EXPECT_GE(m.size, limits.min_fat_tree_k);
      EXPECT_LE(m.size, limits.max_fat_tree_k);
      EXPECT_EQ(m.size % 2, 0) << "fat-tree k must stay even";
    } else {
      EXPECT_GE(m.size, limits.min_size);
      EXPECT_LE(m.size, limits.max_size);
    }
    EXPECT_GE(m.capacity, limits.min_capacity);
    EXPECT_LE(m.capacity, limits.max_capacity);
    EXPECT_GE(m.failed_links, 0);
    EXPECT_LE(m.failed_links, limits.max_failed_links);
    EXPECT_GE(m.capacity_degradation, limits.min_degradation);
    EXPECT_LE(m.capacity_degradation, 1.0);
    pool.push_back(m);
  }
}

TEST(Mutator, ReachesEveryOperator) {
  // A Waxman parent offers the full menu (shape jitter included).
  std::set<MutationOp> seen;
  for (std::uint64_t seed = 0; seed < 300; ++seed)
    seen.insert(mutate(waxman_parent(), seed).op);
  EXPECT_TRUE(seen.count(MutationOp::kTopologySwap));
  EXPECT_TRUE(seen.count(MutationOp::kSizeStep));
  EXPECT_TRUE(seen.count(MutationOp::kCapacityScale));
  EXPECT_TRUE(seen.count(MutationOp::kSeedReroll));
  EXPECT_TRUE(seen.count(MutationOp::kWaxmanShapeJitter));
  EXPECT_TRUE(seen.count(MutationOp::kLinkFailure));
  EXPECT_TRUE(seen.count(MutationOp::kCapacityDegradation));
  // Non-Waxman parents never draw the Waxman-only operator.
  for (std::uint64_t seed = 0; seed < 300; ++seed)
    EXPECT_NE(mutate(fat_tree_parent(), seed).op,
              MutationOp::kWaxmanShapeJitter);
}

TEST(Coverage, FeatureBucketsAreExactSignedExponents) {
  EXPECT_EQ(feature_bucket(0.0), 0);
  // Same power of two -> same bucket; next power -> different.
  EXPECT_EQ(feature_bucket(40.0), feature_bucket(50.0));
  EXPECT_NE(feature_bucket(40.0), feature_bucket(80.0));
  EXPECT_EQ(feature_bucket(-1.5), -feature_bucket(1.5));
  // Nonzero buckets are odd, so they never collide with the zero bucket.
  for (double v : {0.001, 0.5, 1.0, 3.0, 1e6, -7.25})
    EXPECT_NE(feature_bucket(v) % 2, 0) << v;
  const FeatureMap f = {{"links", 40.0}, {"ratio", 0.75}};
  EXPECT_EQ(bucket_key("wcmp", f),
            "wcmp|links:" + std::to_string(feature_bucket(40.0)) +
                "|ratio:" + std::to_string(feature_bucket(0.75)));
}

TEST(Coverage, OfferKeepsNovelAndClearlyImprovedOnly) {
  CoverageMap cov(/*significant_gap=*/0.15, /*min_gain=*/0.05);
  const FeatureMap f = {{"links", 40.0}};
  EXPECT_TRUE(cov.offer("wcmp", f, 0.10));    // novel bucket
  EXPECT_FALSE(cov.offer("wcmp", f, 0.10));   // same, no gain
  EXPECT_FALSE(cov.offer("wcmp", f, 0.104));  // +4% < min_gain
  EXPECT_TRUE(cov.offer("wcmp", f, 0.20));    // clear improvement
  EXPECT_FALSE(cov.offer("wcmp", f, 0.15));   // worse than incumbent
  EXPECT_TRUE(cov.offer("lb", f, 0.01));      // same features, new case
  EXPECT_EQ(cov.best(bucket_key("wcmp", f)), 0.20);
  const CoverageStats st = cov.stats();
  EXPECT_EQ(st.buckets, 2);
  EXPECT_EQ(st.significant_buckets, 1);  // only wcmp's 0.20 clears 0.15
  EXPECT_EQ(st.offers, 6);
  EXPECT_EQ(st.accepted_novel, 2);
  EXPECT_EQ(st.accepted_improved, 1);
}

TEST(Archive, CanonicalOrderAndByteForByteJson) {
  // Same content, different insertion order -> identical serialization.
  const std::vector<Discovery> ds = {
      make_discovery("wcmp", 4, 1.0, "wcmp|links:13"),
      make_discovery("wcmp", 6, 0.5, "wcmp|links:15"),
      make_discovery("demand_pinning", 4, 0.3, "demand_pinning|links:13"),
  };
  Archive fwd, rev;
  for (const auto& d : ds) fwd.add(d);
  for (auto it = ds.rbegin(); it != ds.rend(); ++it) rev.add(*it);
  EXPECT_EQ(fwd.to_json(), rev.to_json());
  ASSERT_EQ(fwd.size(), 3);
  EXPECT_EQ(fwd.discoveries()[0].case_name, "demand_pinning");

  // Per-(case, bucket) incumbent: only a strictly larger norm_gap replaces.
  Archive a = fwd;
  a.add(make_discovery("wcmp", 8, 0.9, "wcmp|links:13"));
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(a.discoveries()[1].spec.size, 4);  // 1.0 incumbent kept
  a.add(make_discovery("wcmp", 8, 1.5, "wcmp|links:13"));
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(a.discoveries()[1].spec.size, 8);  // displaced

  // JSON round-trips byte-for-byte (specs, 64-bit seeds, doubles).
  Archive big = fwd;
  Discovery odd = make_discovery("wcmp", 4, 0.625, "wcmp|links:99");
  odd.spec.seed = 0xFFFFFFFFFFFFFFFFull;
  odd.spec.failed_links = 2;
  odd.spec.capacity_degradation = 0.7;
  big.add(odd);
  const std::string once = big.to_json();
  std::string err;
  const auto back = Archive::from_json(once, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->to_json(), once);
  EXPECT_FALSE(Archive::from_json("{\"discoveries\":3}").has_value());
  // An out-of-range generation is malformed input, not a cast.
  EXPECT_FALSE(Archive::from_json(
                   R"({"discoveries":[{"case":"wcmp","scenario":{},)"
                   R"("generation":1e300}]})",
                   &err)
                   .has_value());
  EXPECT_NE(err.find("generation"), std::string::npos) << err;
}

TEST(Fuzzer, TinyBudgetFindsTheFatTreeWcmpGap) {
  // Generation 0 alone (the built-in seed corpus) must surface the known
  // fat-tree(4) WCMP gap — the paper's flagship Type-1 example.
  FuzzerOptions opts;
  opts.cases = {"wcmp"};
  opts.budget_evals = 4;
  opts.workers = 1;
  const FuzzResult res = run_fuzzer(opts);
  EXPECT_EQ(res.stats.evals, 4);
  EXPECT_EQ(res.stats.failed_jobs, 0);
  bool found = false;
  for (const Discovery& d : res.archive.discoveries())
    found |= d.case_name == "wcmp" &&
             d.spec.kind == TopologyKind::kFatTree && d.spec.size == 4 &&
             d.norm_gap >= 0.5;
  EXPECT_TRUE(found) << res.archive.to_json();
}

TEST(Fuzzer, ArchiveIsBitwiseIdenticalAcrossWorkerCounts) {
  FuzzerOptions opts;
  opts.cases = {"wcmp", "demand_pinning"};
  opts.budget_evals = 16;
  opts.generation_size = 4;
  opts.seed = 99;
  opts.workers = 1;
  const FuzzResult one = run_fuzzer(opts);
  opts.workers = 4;
  const FuzzResult four = run_fuzzer(opts);
  EXPECT_EQ(one.archive.to_json(), four.archive.to_json());
  EXPECT_EQ(one.stats.evals, four.stats.evals);
  EXPECT_EQ(one.stats.coverage.buckets, four.stats.coverage.buckets);
  EXPECT_GT(one.archive.size(), 0);
}

TEST(Fuzzer, CommittedCorpusReplaysExactly) {
  // The committed discovery corpus is a regression baseline: every entry
  // re-evaluated under its recorded options must reproduce the archived
  // gap bitwise and land in the archived coverage bucket.
  const std::string path =
      std::string(XPLAIN_REPO_ROOT) + "/bench/corpus/discovered.json";
  std::string err;
  const auto archive = Archive::load(path, &err);
  ASSERT_TRUE(archive.has_value()) << err;
  ASSERT_GE(archive->size(), 8);
  for (const Discovery& d : archive->discoveries()) {
    const ReplayOutcome r = replay_discovery(d);
    ASSERT_TRUE(r.ok) << d.case_name << "@" << d.spec.display_name() << ": "
                      << r.error;
    EXPECT_EQ(r.gap, d.gap) << d.case_name << "@" << d.spec.display_name();
    EXPECT_EQ(r.bucket, d.bucket)
        << d.case_name << "@" << d.spec.display_name();
    EXPECT_EQ(r.options_fingerprint, d.options_fingerprint);
  }
}
