#include "te/demand_pinning.h"

#include <cassert>
#include <optional>

namespace xplain::te {

DpResult run_demand_pinning(const TeInstance& inst, const DpConfig& cfg,
                            const std::vector<double>& d, MaxFlowSolver* mf) {
  assert(static_cast<int>(d.size()) == inst.num_pairs());
  DpResult res;
  res.pinned.assign(inst.num_pairs(), false);
  res.flow.assign(inst.num_pairs(), {});

  // Phase 1: pin everything at or below the threshold to its shortest path.
  std::vector<double> residual(inst.topo.num_links());
  for (int l = 0; l < inst.topo.num_links(); ++l)
    residual[l] = inst.topo.link(LinkId{l}).capacity;
  std::vector<bool> skip(inst.num_pairs(), false);
  for (int k = 0; k < inst.num_pairs(); ++k) {
    res.flow[k].assign(inst.pairs[k].paths.size(), 0.0);
    if (d[k] > cfg.threshold) continue;
    res.pinned[k] = true;
    skip[k] = true;
    res.flow[k][0] = d[k];
    for (LinkId l : inst.pairs[k].path_links[0]) {
      residual[l.v] -= d[k];
      if (residual[l.v] < -1e-9) return res;  // pinning violates capacity
    }
    res.total += d[k];
  }

  // Phase 2: optimal residual max-flow for the unpinned demands.
  FlowResult rest = mf ? mf->solve(d, &residual, &skip)
                       : solve_max_flow(inst, d, &residual, &skip);
  if (!rest.feasible) return res;
  res.feasible = true;
  res.total += rest.total;
  for (int k = 0; k < inst.num_pairs(); ++k) {
    if (skip[k]) continue;
    res.flow[k] = rest.flow[k];
  }
  return res;
}

double dp_gap(const TeInstance& inst, const DpConfig& cfg,
              const std::vector<double>& d, MaxFlowSolver* mf) {
  DpResult h = run_demand_pinning(inst, cfg, d, mf);
  if (!h.feasible) return 0.0;
  std::optional<double> opt;
  if (mf) {
    opt = mf->solve_total(d);
  } else if (const FlowResult r = solve_max_flow(inst, d); r.feasible) {
    opt = r.total;
  }
  return opt ? *opt - h.total : 0.0;
}

PathNetwork build_dp_network(const TeInstance& inst) {
  return build_path_network(inst.topo, inst.pairs, inst.d_max,
                            {"demand_pinning", "demand", "demand"});
}

std::vector<model::Var> add_pinning_rule(flowgraph::CompiledNetwork& c,
                                         const PathNetwork& dp,
                                         const DpConfig& cfg,
                                         const model::HelperConfig& hcfg) {
  std::vector<model::Var> pinned;
  const int num_pairs = static_cast<int>(dp.demand_nodes.size());
  for (int k = 0; k < num_pairs; ++k) {
    const model::Var d = c.injection[dp.demand_nodes[k].v];
    const model::Var f_short = c.flow(dp.path_edges[k][0]);
    // Fig. 1b: ForceToZeroIfLeq(d_k - f_shortest, d_k, T): pinned demands
    // are fully routed on the shortest path...
    model::Var z = model::force_to_zero_if_leq(
        c.model, model::LinExpr(d) - model::LinExpr(f_short), model::LinExpr(d),
        cfg.threshold, hcfg);
    // ...and on nothing else (no alternate paths, no unmet spill).
    for (std::size_t p = 1; p < dp.path_edges[k].size(); ++p) {
      c.model.add(model::LinExpr(c.flow(dp.path_edges[k][p])) <=
                  hcfg.big_m * (model::LinExpr(1.0) - model::LinExpr(z)));
    }
    pinned.push_back(z);
  }
  return pinned;
}

void fix_demands(flowgraph::CompiledNetwork& c, const PathNetwork& dp,
                 const std::vector<double>& d) {
  assert(d.size() == dp.demand_nodes.size());
  for (std::size_t k = 0; k < d.size(); ++k) {
    const model::Var inj = c.injection[dp.demand_nodes[k].v];
    c.model.lp().set_bounds(inj.index, d[k], d[k]);
  }
}

}  // namespace xplain::te
