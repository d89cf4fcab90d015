#include "lb/optimal.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "lb/wcmp.h"
#include "model/model.h"

namespace xplain::lb {

LbOptimalResult solve_lb_optimal(const LbInstance& inst,
                                 const std::vector<double>& x,
                                 const LbOptimalOptions& opts) {
  assert(static_cast<int>(x.size()) == inst.input_dim());
  const int K = inst.num_commodities();
  const std::vector<double> caps =
      inst.effective_capacities(inst.skew_of(x));

  model::Model m;
  // f[k][p]: rate of commodity k on candidate path p.  The per-path upper
  // bound (demand) keeps the LP's implicit box tight for the solver.
  std::vector<std::vector<model::Var>> f(K);
  std::vector<model::LinExpr> link_load(inst.topo.num_links());
  model::LinExpr total;
  for (int k = 0; k < K; ++k) {
    const auto& paths = inst.commodities[k].paths;
    const double demand = std::clamp(x[k], 0.0, inst.t_max);
    model::LinExpr routed;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      model::Var v = m.add_continuous(0.0, demand);
      f[k].push_back(v);
      routed += v;
      total += v;
      for (te::LinkId l : paths[p].links(inst.topo)) link_load[l.v] += v;
    }
    m.add(routed <= model::LinExpr(demand));
  }
  for (int l = 0; l < inst.topo.num_links(); ++l)
    m.add(link_load[l] <= model::LinExpr(caps[l]));

  // Hardware-table variant: commodity k may activate at most `max_paths`
  // of its candidates.  Binary y gates each path's flow (big-M = demand),
  // making the encoding an exact MILP.
  const int max_paths = opts.max_paths_per_commodity;
  if (max_paths > 0) {
    for (int k = 0; k < K; ++k) {
      if (static_cast<int>(f[k].size()) <= max_paths) continue;
      const double demand = std::clamp(x[k], 0.0, inst.t_max);
      model::LinExpr active;
      for (model::Var v : f[k]) {
        model::Var y = m.add_binary();
        active += y;
        m.add(model::LinExpr(v) <= demand * model::LinExpr(y));
      }
      m.add(active <= model::LinExpr(static_cast<double>(max_paths)));
    }
  }

  m.set_objective(solver::Sense::kMaximize, total);

  LbOptimalResult res;
  std::vector<double> sol;
  if (m.lp().is_mip()) {
    auto s = m.solve(opts.milp);
    if (s.status != solver::Status::kOptimal) return res;
    res.total = s.obj;
    sol = std::move(s.x);
  } else {
    auto s = m.solve_lp();
    if (s.status != solver::Status::kOptimal) return res;
    res.total = s.obj;
    sol = std::move(s.x);
  }
  res.feasible = true;
  res.flow.resize(K);
  for (int k = 0; k < K; ++k) {
    res.flow[k].reserve(f[k].size());
    for (model::Var v : f[k]) res.flow[k].push_back(m.value(sol, v));
  }
  return res;
}

namespace {

std::vector<double> center_caps(const LbInstance& inst) {
  return inst.effective_capacities(
      inst.has_skew_dim() ? 0.5 * (inst.skew_lo + inst.skew_hi) : 1.0);
}

}  // namespace

LbOptimalSolver::LbOptimalSolver(const LbInstance& inst)
    : t_max_(inst.t_max),
      has_skew_dim_(inst.has_skew_dim()),
      base_caps_(inst.effective_capacities(1.0)),
      skewed_(inst.topo.num_links(), false),
      rates_(inst.num_commodities()),
      // The caps_ buffer starts out holding the center capacities the
      // reference solve needs (members initialize in declaration order).
      caps_(center_caps(inst)),
      max_flow_(inst.topo, inst.commodities,
                std::vector<double>(inst.num_commodities(), 0.5 * inst.t_max),
                &caps_) {
  for (int l = 0; l < inst.topo.num_links(); ++l)
    skewed_[l] = inst.is_skewed(l);
}

double LbOptimalSolver::solve_total(const std::vector<double>& x) {
  assert(x.size() == rates_.size() + (has_skew_dim_ ? 1 : 0));
  for (std::size_t k = 0; k < rates_.size(); ++k)
    rates_[k] = std::clamp(x[k], 0.0, t_max_);
  const double skew = has_skew_dim_ ? x[rates_.size()] : 1.0;
  for (std::size_t l = 0; l < caps_.size(); ++l)
    caps_[l] = skewed_[l] ? base_caps_[l] * skew : base_caps_[l];
  return max_flow_.solve_total(rates_, &caps_).value_or(-1.0);
}

double lb_gap_cached(const LbInstance& inst, const std::vector<double>& x,
                     LbOptimalSolver& opt) {
  const double opt_total = opt.solve_total(x);
  if (opt_total < 0.0) return 0.0;
  return std::max(0.0, opt_total - wcmp_split(inst, x).total);
}

}  // namespace xplain::lb
