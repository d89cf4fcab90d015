// Tests for the load-balancing domain: instance plumbing (skew dimension),
// the WCMP local-greedy split, the model-layer optimal routing (LP and
// path-limited MILP), and WCMP-vs-optimal exactness on instances where the
// heuristic is provably optimal.
#include <gtest/gtest.h>

#include "analyzer/evaluator.h"
#include "cases/lb_case.h"
#include "lb/network.h"
#include "lb/optimal.h"
#include "lb/wcmp.h"
#include "scenario/scenario.h"
#include "solver/lp.h"
#include "util/random.h"

using namespace xplain;
using namespace xplain::lb;

namespace {

/// Two commodities with fully disjoint single paths: WCMP routes each on
/// its only path up to capacity, which is exactly what the optimal does.
LbInstance disjoint_instance() {
  te::Topology t(6);
  t.add_bidi(0, 1, 100);  // path of commodity A
  t.add_bidi(2, 3, 100);  // path of commodity B
  t.add_bidi(4, 5, 100);  // unused
  return LbInstance::make(std::move(t), {{0, 1}, {2, 3}}, /*k_paths=*/2,
                          /*t_max=*/150.0);
}

/// The canonical WCMP failure, hand-built: commodity A (1->2) has the
/// shared link 1-2 plus a private detour 1-3-2; commodity B (0->2) can
/// only go through the shared link.  A's proportional split wastes half
/// of the shared link although its detour could carry everything, so B
/// drops traffic the optimal routes.
LbInstance contended_instance() {
  te::Topology t(4);
  t.add_bidi(0, 1, 100);
  t.add_bidi(1, 2, 100);  // the shared link
  t.add_bidi(1, 3, 100);
  t.add_bidi(3, 2, 100);  // A's private detour
  LbInstance inst;
  inst.topo = std::move(t);
  inst.t_max = 100.0;
  inst.commodities = {
      te::TePair::make(inst.topo, 1, 2,
                       {te::Path{{1, 2}}, te::Path{{1, 3, 2}}}),
      te::TePair::make(inst.topo, 0, 2,
                       {te::Path{{0, 1, 2}}}),  // no alternative
  };
  return inst;
}

}  // namespace

TEST(LbInstance, MakeComputesPathsAndDropsUnreachable) {
  te::Topology t(4);
  t.add_bidi(0, 1, 10);
  t.add_bidi(1, 2, 10);
  // Node 3 is isolated: the 0~>3 commodity must be dropped.
  auto inst = LbInstance::make(std::move(t), {{0, 2}, {0, 3}}, 3, 50.0);
  ASSERT_EQ(inst.num_commodities(), 1);
  EXPECT_EQ(inst.commodities[0].dst, 2);
  EXPECT_FALSE(inst.has_skew_dim());
  EXPECT_EQ(inst.input_dim(), 1);
}

TEST(LbInstance, SkewDimensionAndEffectiveCapacities) {
  te::Topology t(3);
  t.add_bidi(0, 1, 100);
  t.add_bidi(1, 2, 200);  // top tier
  auto inst = LbInstance::make(std::move(t), {{0, 2}}, 2, 50.0);
  inst.skew_top_tier(0.5, 1.0);
  ASSERT_TRUE(inst.has_skew_dim());
  EXPECT_EQ(inst.input_dim(), 2);
  // Only the 200-capacity links are marked.
  const auto caps = inst.effective_capacities(0.5);
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const double base = inst.topo.link(te::LinkId{l}).capacity;
    EXPECT_DOUBLE_EQ(caps[l], base == 200.0 ? 100.0 : base);
  }
  EXPECT_DOUBLE_EQ(inst.skew_of({25.0, 0.75}), 0.75);
}

TEST(Wcmp, RoutesEverythingOnDisjointPaths) {
  auto inst = disjoint_instance();
  const std::vector<double> x{80.0, 120.0};
  auto res = wcmp_split(inst, x);
  EXPECT_NEAR(res.total, 180.0, 1e-9);
  EXPECT_NEAR(res.unmet[0], 0.0, 1e-9);
  EXPECT_NEAR(res.unmet[1], 20.0, 1e-9);  // 120 offered on a 100 link
}

TEST(Wcmp, NeverExceedsCapacitiesProperty) {
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  auto inst = scenario::make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0);
  util::Rng rng(5);
  analyzer::Box box;
  box.lo.assign(inst.input_dim(), 0.0);
  box.hi.assign(inst.input_dim(), inst.t_max);
  box.lo.back() = inst.skew_lo;
  box.hi.back() = inst.skew_hi;
  for (int it = 0; it < 30; ++it) {
    const auto x = rng.uniform_point(box.lo, box.hi);
    const auto res = wcmp_split(inst, x);
    const auto caps = inst.effective_capacities(inst.skew_of(x));
    for (std::size_t l = 0; l < caps.size(); ++l)
      EXPECT_LE(res.link_load[l], caps[l] + 1e-6) << "link " << l;
  }
}

TEST(LbOptimal, MatchesWcmpOnProvablyOptimalInstances) {
  // Disjoint single paths: WCMP is exactly optimal, so the gap is 0 across
  // the whole input box (the WCMP-vs-MILP exactness check).
  auto inst = disjoint_instance();
  util::Rng rng(7);
  for (int it = 0; it < 40; ++it) {
    std::vector<double> x(2);
    for (auto& v : x) v = rng.uniform(0.0, inst.t_max);
    const auto heur = wcmp_split(inst, x);
    const auto opt = solve_lb_optimal(inst, x);
    ASSERT_TRUE(opt.feasible);
    EXPECT_NEAR(heur.total, opt.total, 1e-6) << "at it " << it;
    EXPECT_NEAR(lb_gap(inst, x), 0.0, 1e-6);
  }
}

TEST(LbOptimal, GapIsNonNegativeProperty) {
  auto inst = contended_instance();
  util::Rng rng(9);
  for (int it = 0; it < 40; ++it) {
    std::vector<double> x(inst.input_dim());
    for (auto& v : x) v = rng.uniform(0.0, inst.t_max);
    EXPECT_GE(lb_gap(inst, x), -1e-6);
  }
}

TEST(LbOptimal, ContentionProducesAPositiveGap) {
  // At full rates: A splits 50/50 across its two equal-headroom paths,
  // leaving B only 50 on the shared link; the optimal sends A entirely on
  // the detour and routes everything.  WCMP 150 vs OPT 200.
  auto inst = contended_instance();
  std::vector<double> x(inst.input_dim(), inst.t_max);
  const auto heur = wcmp_split(inst, x);
  const auto opt = solve_lb_optimal(inst, x);
  EXPECT_NEAR(heur.total, 150.0, 1e-6);
  EXPECT_NEAR(opt.total, 200.0, 1e-6);
  EXPECT_NEAR(lb_gap(inst, x), 50.0, 1e-6);
}

TEST(LbOptimalSolver, MatchesModelLayerSolveAndIsPure) {
  // The warm-started structure cache must agree with the model-layer
  // encoding everywhere, and history must not change its answers (the
  // property the per-thread evaluator cache relies on).
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  auto inst = scenario::make_lb_instance(spec, 6, 3, 100.0, 0.25, 1.0);
  LbOptimalSolver cached(inst), fresh(inst);
  util::Rng rng(13);
  analyzer::Box box;
  box.lo.assign(inst.input_dim(), 0.0);
  box.hi.assign(inst.input_dim(), inst.t_max);
  box.lo.back() = inst.skew_lo;
  box.hi.back() = inst.skew_hi;
  for (int it = 0; it < 25; ++it) {
    const auto x = rng.uniform_point(box.lo, box.hi);
    const auto reference = solve_lb_optimal(inst, x);
    ASSERT_TRUE(reference.feasible);
    EXPECT_NEAR(cached.solve_total(x), reference.total, 1e-6) << "it " << it;
    EXPECT_NEAR(lb_gap_cached(inst, x, cached), lb_gap(inst, x), 1e-6);
  }
  // Purity: a solver with different history answers bitwise identically.
  const std::vector<double> probe = rng.uniform_point(box.lo, box.hi);
  EXPECT_EQ(cached.solve_total(probe), fresh.solve_total(probe));
}

TEST(LbOptimal, PathLimitedMilpIsExactAndBounded) {
  auto inst = contended_instance();
  const std::vector<double> x{60.0, 60.0};
  const auto unrestricted = solve_lb_optimal(inst, x);
  LbOptimalOptions limited;
  limited.max_paths_per_commodity = 1;
  const auto restricted = solve_lb_optimal(inst, x, limited);
  ASSERT_TRUE(unrestricted.feasible);
  ASSERT_TRUE(restricted.feasible);
  // Restricting active paths can only lose routed traffic.
  EXPECT_LE(restricted.total, unrestricted.total + 1e-6);
  // Each commodity really uses at most one path.
  for (const auto& flows : restricted.flow) {
    int active = 0;
    for (double f : flows) active += f > 1e-6;
    EXPECT_LE(active, 1);
  }
}

TEST(LbPathNetwork, StructureLabelsAndFlowMapping) {
  auto inst = contended_instance();
  inst.skewed.assign(inst.topo.num_links(), false);
  inst.skewed[2] = inst.skewed[3] = true;  // shared link "2-3", both ways
  inst.skew_lo = 0.5;
  auto lbn = te::build_path_network(inst.topo, inst.commodities, inst.t_max,
                                    kNetworkLabels);
  mark_skewed_links(lbn, inst);
  // Sinks (met/unmet) + link nodes + per-commodity source + path nodes.
  int paths = 0;
  for (const auto& c : inst.commodities) paths += static_cast<int>(c.paths.size());
  EXPECT_EQ(lbn.net.num_nodes(),
            2 + inst.topo.num_links() + inst.num_commodities() + paths);
  const auto problems = lbn.net.validate();
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);

  // LB's labels, byte for byte: a regression to DP's words fails here.
  const auto& net = lbn.net;
  EXPECT_EQ(net.name(), "wcmp_load_balancing");
  EXPECT_TRUE(net.find_node("met_traffic").valid());
  EXPECT_TRUE(net.find_node("unmet_traffic").valid());
  EXPECT_FALSE(net.find_node("met_demand").valid());
  const auto& src = net.node(lbn.demand_nodes[0]);
  EXPECT_EQ(src.name, "traffic_2~>3");
  EXPECT_EQ(src.metadata.at("kind"), "commodity");
  EXPECT_EQ(src.metadata.at("pair"), "2~>3");
  const auto& via = net.edge(lbn.path_edges[0][1]);
  EXPECT_EQ(via.name, "2~>3 via 2-4-3");
  EXPECT_EQ(via.metadata.at("kind"), "commodity_path");
  EXPECT_EQ(via.metadata.at("shortest"), "no");
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const char* mark = inst.skewed[l] ? "yes" : "no";
    const auto& cap = net.edge(lbn.link_edges[l]);
    EXPECT_EQ(cap.metadata.at("kind"), "link_capacity");
    EXPECT_EQ(cap.metadata.at("skewed"), mark) << "link " << l;
    EXPECT_EQ(net.nodes()[cap.from].metadata.at("skewed"), mark)
        << "link " << l;
  }

  const std::vector<double> x{80.0, 40.0, 0.75};
  const auto res = wcmp_split(inst, x);
  const auto flows =
      te::path_network_flows(lbn, inst.topo, inst.commodities, x, res.flow);
  ASSERT_EQ(static_cast<int>(flows.size()), lbn.net.num_edges());
  // Unmet edges carry offered - routed.
  for (int k = 0; k < inst.num_commodities(); ++k)
    EXPECT_NEAR(flows[lbn.unmet_edges[k].v], res.unmet[k], 1e-9);
  // Link edges aggregate the per-path loads.
  for (int l = 0; l < inst.topo.num_links(); ++l)
    EXPECT_NEAR(flows[lbn.link_edges[l].v], res.link_load[l], 1e-9);
}

TEST(LbOptimalSolver, GoldenOnFatTree4Case) {
  // LbOptimalSolver's totals bitwise and its LP work exactly on the
  // registry default instance: any change to the LP it hands the solver
  // (structure, rhs, options, reference basis) moves one of these.  The
  // counter delta spans construction, pinning the reference cold solve.
  const auto lb_case = cases::LbCase::fat_tree4();
  const LbInstance& inst = lb_case->instance();
  const auto before = solver::lp_counters();
  LbOptimalSolver opt(inst);
  util::Rng rng(47);
  std::vector<double> lo(inst.input_dim(), 0.0);
  std::vector<double> hi(inst.input_dim(), inst.t_max);
  lo.back() = inst.skew_lo;
  hi.back() = inst.skew_hi;
  std::vector<double> totals;
  for (int it = 0; it < 8; ++it)
    totals.push_back(opt.solve_total(rng.uniform_point(lo, hi)));
  const auto delta = solver::lp_counters() - before;
  const std::vector<double> want = {
      0x1.65bd8a6d0ad8p+8,  0x1.8fd492f33657cp+8, 0x1.9ebbf8fcd81fap+8,
      0x1.2d9e519adf635p+8, 0x1.4f347aead2f85p+8, 0x1.164b843a12a2ap+8,
      0x1.ad1f19c89e1bbp+8, 0x1.0cae0186c8637p+8};
  ASSERT_EQ(totals.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(totals[i], want[i]) << "total " << i;  // bitwise
  EXPECT_EQ(delta.solves, 9);
  EXPECT_EQ(delta.iterations, 41);
  EXPECT_EQ(delta.columns_priced, 528);
}
