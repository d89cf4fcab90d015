// Tests for the scenario corpus: generated shapes have the expected
// structure, and generation is a pure function of the ScenarioSpec — the
// same spec yields bitwise-identical topologies and instances no matter
// how many worker threads are building scenarios concurrently.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "te/paths.h"
#include "util/parallel.h"

using namespace xplain;
using namespace xplain::scenario;

namespace {

bool same_topology(const te::Topology& a, const te::Topology& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_links() != b.num_links())
    return false;
  for (int l = 0; l < a.num_links(); ++l) {
    const auto& la = a.link(te::LinkId{l});
    const auto& lb = b.link(te::LinkId{l});
    if (la.from != lb.from || la.to != lb.to || la.capacity != lb.capacity)
      return false;  // capacity compared bitwise on purpose
  }
  return true;
}

}  // namespace

TEST(Scenario, FatTreeShape) {
  ScenarioSpec spec;
  spec.kind = TopologyKind::kFatTree;
  spec.size = 4;
  auto t = build_topology(spec);
  // k=4: 4 cores + 4 pods x (2 agg + 2 edge) = 20 switches; each pod has
  // 4 edge-agg links + 4 agg-core links, bidirectional.
  EXPECT_EQ(t.num_nodes(), 20);
  EXPECT_EQ(t.num_links(), 2 * (4 * 4 + 4 * 4));
  // Every edge switch reaches every other — no partitions.
  auto inst = make_te_instance(spec, /*num_pairs=*/6, /*k_paths=*/2, 100.0);
  EXPECT_EQ(inst.num_pairs(), 6);
  // Inter-pod edge pairs see multiple candidate paths (ECMP diversity).
  for (const auto& pair : inst.pairs) EXPECT_GE(pair.paths.size(), 1u);
}

TEST(Scenario, WaxmanIsConnectedAndCapacitiesInRange) {
  ScenarioSpec spec;
  spec.kind = TopologyKind::kWaxman;
  spec.size = 14;
  spec.seed = 9;
  auto t = build_topology(spec);
  EXPECT_EQ(t.num_nodes(), 14);
  EXPECT_GE(t.num_links(), 2 * 13);  // at least the spanning tree
  for (const auto& l : t.links()) {
    EXPECT_GE(l.capacity, 0.5 * spec.capacity);
    EXPECT_LE(l.capacity, spec.capacity);
  }
  for (int v = 1; v < t.num_nodes(); ++v)
    EXPECT_FALSE(te::shortest_path(t, 0, v).empty()) << "node " << v;
}

TEST(Scenario, LineAndStarShapes) {
  ScenarioSpec line;
  line.kind = TopologyKind::kLine;
  line.size = 6;
  EXPECT_EQ(build_topology(line).num_links(), 2 * 5);
  ScenarioSpec star;
  star.kind = TopologyKind::kStar;
  star.size = 8;
  auto t = build_topology(star);
  EXPECT_EQ(t.num_links(), 2 * 7);
  // Every spoke pair routes through the hub: path length 2.
  EXPECT_EQ(te::shortest_path(t, 1, 7).hops(), 2);
}

TEST(Scenario, SameSeedSameTopologyAcrossWorkerCounts) {
  // Build the same randomized spec on 1 and 8 concurrent workers; every
  // copy must be bitwise identical (generation derives all randomness from
  // the spec alone).
  ScenarioSpec spec;
  spec.kind = TopologyKind::kWaxman;
  spec.size = 16;
  spec.seed = 1234;
  const te::Topology reference = build_topology(spec);
  for (int workers : {1, 8}) {
    std::vector<te::Topology> built(16);
    util::parallel_chunks(built.size(), workers,
                          [&](std::size_t begin, std::size_t end, int) {
                            for (std::size_t i = begin; i < end; ++i)
                              built[i] = build_topology(spec);
                          });
    for (const auto& t : built) EXPECT_TRUE(same_topology(reference, t));
  }
}

TEST(Scenario, DifferentSeedsDifferentTopologies) {
  ScenarioSpec a, b;
  a.kind = b.kind = TopologyKind::kWaxman;
  a.size = b.size = 16;
  a.seed = 1;
  b.seed = 2;
  EXPECT_FALSE(same_topology(build_topology(a), build_topology(b)));
}

TEST(Scenario, LbInstanceIsDeterministicAndSkewed) {
  ScenarioSpec spec;
  spec.kind = TopologyKind::kFatTree;
  spec.size = 4;
  auto a = make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0);
  auto b = make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0);
  ASSERT_EQ(a.num_commodities(), b.num_commodities());
  EXPECT_EQ(a.num_commodities(), 8);
  for (int k = 0; k < a.num_commodities(); ++k) {
    EXPECT_EQ(a.commodities[k].src, b.commodities[k].src);
    EXPECT_EQ(a.commodities[k].dst, b.commodities[k].dst);
    ASSERT_EQ(a.commodities[k].paths.size(), b.commodities[k].paths.size());
    for (std::size_t p = 0; p < a.commodities[k].paths.size(); ++p)
      EXPECT_EQ(a.commodities[k].paths[p], b.commodities[k].paths[p]);
  }
  // The skewed tier is the agg-core uplinks (2x the edge capacity).
  ASSERT_TRUE(a.has_skew_dim());
  for (int l = 0; l < a.topo.num_links(); ++l)
    EXPECT_EQ(a.skewed[l],
              a.topo.link(te::LinkId{l}).capacity == 2.0 * spec.capacity);
  EXPECT_EQ(a.input_dim(), 9);
}

TEST(Scenario, FailureSpecsGenerateDeterministically) {
  ScenarioSpec spec;
  spec.kind = TopologyKind::kFatTree;
  spec.size = 4;
  spec.failed_links = 2;
  spec.capacity_degradation = 0.7;
  const te::Topology healthy = build_topology([&] {
    ScenarioSpec h = spec;
    h.failed_links = 0;
    h.capacity_degradation = 1.0;
    return h;
  }());
  const te::Topology reference = build_topology(spec);
  // Two physical links fail = four directed links gone; survivors keep
  // exactly 0.7x their healthy capacity, and the fabric stays connected.
  EXPECT_EQ(reference.num_links(), healthy.num_links() - 2 * 2);
  for (const auto& l : reference.links()) {
    const bool edge_tier = l.capacity == 0.7 * spec.capacity;
    const bool core_tier = l.capacity == 0.7 * (2.0 * spec.capacity);
    EXPECT_TRUE(edge_tier || core_tier) << l.capacity;
  }
  for (int v = 1; v < reference.num_nodes(); ++v)
    EXPECT_FALSE(te::shortest_path(reference, 0, v).empty()) << "node " << v;
  // Bitwise identical on any worker count, like every other generator.
  for (int workers : {1, 8}) {
    std::vector<te::Topology> built(16);
    util::parallel_chunks(built.size(), workers,
                          [&](std::size_t begin, std::size_t end, int) {
                            for (std::size_t i = begin; i < end; ++i)
                              built[i] = build_topology(spec);
                          });
    for (const auto& t : built) EXPECT_TRUE(same_topology(reference, t));
  }
  // The failure dimensions flow through to the instances.
  auto lb = make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0);
  EXPECT_GT(lb.num_commodities(), 0);
  EXPECT_EQ(lb.topo.num_links(), reference.num_links());
  auto t = make_te_instance(spec, 6, 2, 100.0);
  EXPECT_EQ(t.topo.num_links(), reference.num_links());
}

TEST(Scenario, FailuresNeverDisconnect) {
  // Every star link is a bridge: requesting failures must remove nothing.
  ScenarioSpec star;
  star.kind = TopologyKind::kStar;
  star.size = 8;
  star.failed_links = 3;
  EXPECT_EQ(build_topology(star).num_links(), 2 * 7);
  // A Waxman WAN loses at most the requested count and stays connected.
  ScenarioSpec wax;
  wax.kind = TopologyKind::kWaxman;
  wax.size = 12;
  wax.seed = 7;
  wax.failed_links = 3;
  const te::Topology t = build_topology(wax);
  for (int v = 1; v < t.num_nodes(); ++v)
    EXPECT_FALSE(te::shortest_path(t, 0, v).empty()) << "node " << v;
}

TEST(Scenario, FailureFieldsExtendKeysOnlyWhenActive) {
  // Healthy specs keep the exact pre-failure-dimension key and label (the
  // committed bench baselines embed them).
  ScenarioSpec healthy;
  healthy.kind = TopologyKind::kFatTree;
  healthy.size = 4;
  EXPECT_EQ(healthy.display_name(), "fat_tree_k4_s1");
  EXPECT_EQ(healthy.cache_key().find("_f"), std::string::npos);
  ScenarioSpec failed = healthy;
  failed.failed_links = 2;
  failed.capacity_degradation = 0.5;
  EXPECT_NE(failed.cache_key(), healthy.cache_key());
  EXPECT_NE(failed.display_name(), healthy.display_name());
  EXPECT_NE(failed.display_name().find("_f2"), std::string::npos);
  EXPECT_NE(failed.display_name().find("_d"), std::string::npos);
  ScenarioSpec degraded_only = healthy;
  degraded_only.capacity_degradation = 0.5;
  EXPECT_NE(degraded_only.cache_key(), healthy.cache_key());
  EXPECT_NE(degraded_only.cache_key(), failed.cache_key());
}

TEST(Scenario, SpecJsonRoundTripsByteForByte) {
  ScenarioSpec spec;
  spec.kind = TopologyKind::kWaxman;
  spec.size = 11;
  spec.capacity = 137.25;
  spec.waxman_alpha = 0.625;
  spec.waxman_beta = 0.4;
  spec.seed = 0xFFFFFFFFFFFFFFFFull;  // above 2^53: must survive as string
  spec.failed_links = 2;
  spec.capacity_degradation = 0.7;
  const std::string once = spec_to_json(spec).dump(2);
  const auto parsed = util::Json::parse(once);
  ASSERT_TRUE(parsed.has_value());
  const auto back = spec_from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, spec.kind);
  EXPECT_EQ(back->size, spec.size);
  EXPECT_EQ(back->capacity, spec.capacity);
  EXPECT_EQ(back->seed, spec.seed);
  EXPECT_EQ(back->failed_links, spec.failed_links);
  EXPECT_EQ(back->capacity_degradation, spec.capacity_degradation);
  EXPECT_EQ(back->cache_key(), spec.cache_key());
  EXPECT_EQ(spec_to_json(*back).dump(2), once);
  // Unknown kinds are an error, not a silent default.
  std::string err;
  const auto bad = spec_from_json(*util::Json::parse("{\"kind\":\"torus\"}"),
                                  &err);
  EXPECT_FALSE(bad.has_value());
  EXPECT_NE(err.find("torus"), std::string::npos);
  // So are integer fields that are fractional or out of range (these were
  // float-to-int casts: "size":1e300 built a line of INT_MIN nodes).
  for (const char* text : {R"({"kind":"line","size":1e300})",
                           R"({"kind":"line","failed_links":1.5})",
                           R"({"kind":"line","seed":-1})"}) {
    EXPECT_FALSE(spec_from_json(*util::Json::parse(text), &err).has_value())
        << text;
    EXPECT_NE(err.find("must be a whole number"), std::string::npos) << text;
  }
}

TEST(Scenario, DefaultCorpusCoversAllShapes) {
  const auto corpus = default_corpus();
  ASSERT_GE(corpus.size(), 4u);
  bool fat = false, wax = false, line = false, star = false;
  for (const auto& spec : corpus) {
    fat |= spec.kind == TopologyKind::kFatTree;
    wax |= spec.kind == TopologyKind::kWaxman;
    line |= spec.kind == TopologyKind::kLine;
    star |= spec.kind == TopologyKind::kStar;
    // Every corpus entry must yield a usable LB instance.
    auto inst = make_lb_instance(spec, 4, 2, 100.0);
    EXPECT_GT(inst.num_commodities(), 0) << spec.name();
  }
  EXPECT_TRUE(fat && wax && line && star);
}
