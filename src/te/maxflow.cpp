#include "te/maxflow.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "solver/simplex.h"

namespace xplain::te {

std::vector<double> FlowResult::link_utilization(
    const TeInstance& inst) const {
  std::vector<double> util(inst.topo.num_links(), 0.0);
  for (int k = 0; k < inst.num_pairs(); ++k) {
    if (flow[k].empty()) continue;
    const auto& paths = inst.pairs[k].path_links;
    for (std::size_t p = 0; p < paths.size(); ++p)
      for (LinkId l : paths[p]) util[l.v] += flow[k][p];
  }
  return util;
}

namespace {

/// The path-flow LP: one column (0, inf, objective 1) per (pair, path) in
/// pair-then-path order, one demand row per pair with rhs demand_rhs[k],
/// then one capacity row per link with rhs caps[l] (null = the topology's
/// capacities).  A pair with skip[k] set gets neither columns nor a demand
/// row.  first_var[k] receives pair k's first column (-1 when skipped).
///
/// The direct assembly (no Model / LinExpr temporaries) matters: these LPs
/// sit in the innermost loop of the sampling stages, where that front end
/// measurably dominated the solve on small instances.
solver::LpProblem build_path_flow_lp(const Topology& topo,
                                     const std::vector<TePair>& pairs,
                                     const std::vector<double>& demand_rhs,
                                     const std::vector<double>* caps,
                                     const std::vector<bool>* skip,
                                     std::vector<int>& first_var) {
  const int num_pairs = static_cast<int>(pairs.size());
  solver::LpProblem lp;
  lp.sense = solver::Sense::kMaximize;
  int nvars = 0;
  for (int k = 0; k < num_pairs; ++k)
    if (!skip || !(*skip)[k])
      nvars += static_cast<int>(pairs[k].paths.size());
  lp.reserve(nvars, num_pairs + topo.num_links());
  first_var.assign(num_pairs, -1);
  std::vector<std::vector<std::pair<int, double>>> link_load(
      topo.num_links());
  std::vector<std::pair<int, double>> routed;
  for (int k = 0; k < num_pairs; ++k) {
    if (skip && (*skip)[k]) continue;
    const auto& paths = pairs[k].paths;
    routed.clear();
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const int v = lp.add_col(0, solver::kInf, 1.0);
      if (p == 0) first_var[k] = v;
      routed.emplace_back(v, 1.0);
      for (LinkId l : paths[p].links(topo)) link_load[l.v].emplace_back(v, 1.0);
    }
    lp.add_row(routed, solver::RowSense::kLe, demand_rhs[k]);
  }
  for (int l = 0; l < topo.num_links(); ++l) {
    const double cap = caps ? (*caps)[l] : topo.link(LinkId{l}).capacity;
    lp.add_row(std::move(link_load[l]), solver::RowSense::kLe, cap);
  }
  return lp;
}

/// Neither the duals nor the basis are consumed by the per-sample solves.
solver::SimplexOptions sample_solve_options() {
  solver::SimplexOptions sopts;
  sopts.want_duals = false;
  sopts.want_basis = false;
  return sopts;
}

/// Binds `lp` to a session whose reference basis is its own cold optimum
/// (at the rhs it was built with — the center of the input box: uniform
/// sampling concentrates there, so the repair distance from the reference
/// to a typical sample is small).  Fixed, so results never depend on
/// which samples this thread solved before.  A failed reference solve
/// leaves the basis empty, and every solve then starts cold.
solver::RhsSession reference_session(solver::LpProblem lp) {
  solver::SimplexOptions sopts;
  sopts.want_duals = false;
  auto ref = solver::solve_lp(lp, sopts);
  if (ref.status != solver::Status::kOptimal) ref.basis = {};
  return solver::RhsSession(std::move(lp), std::move(ref.basis),
                            sample_solve_options());
}

}  // namespace

FlowResult solve_max_flow(const TeInstance& inst, const std::vector<double>& d,
                          const std::vector<double>* residual_caps,
                          const std::vector<bool>* skip) {
  assert(static_cast<int>(d.size()) == inst.num_pairs());
  std::vector<int> first_var;
  const solver::LpProblem lp = build_path_flow_lp(
      inst.topo, inst.pairs, d, residual_caps, skip, first_var);
  auto s = solver::solve_lp(lp, sample_solve_options());

  FlowResult res;
  if (s.status != solver::Status::kOptimal) return res;
  res.feasible = true;
  res.total = s.obj;
  res.flow.resize(inst.num_pairs());
  for (int k = 0; k < inst.num_pairs(); ++k) {
    res.flow[k].assign(inst.pairs[k].paths.size(), 0.0);
    if (first_var[k] < 0) continue;
    for (std::size_t p = 0; p < inst.pairs[k].paths.size(); ++p)
      res.flow[k][p] = s.x[first_var[k] + static_cast<int>(p)];
  }
  return res;
}

MaxFlowSolver::MaxFlowSolver(const Topology& topo,
                             const std::vector<TePair>& pairs,
                             const std::vector<double>& center_demands,
                             const std::vector<double>* center_caps)
    : num_pairs_(static_cast<int>(pairs.size())),
      num_links_(topo.num_links()),
      // Built with EVERY pair's columns: a skipped pair is expressed per
      // solve by dropping its demand row's rhs to 0 (forcing its flows to
      // 0) instead of by omitting columns, so the structure — and with it
      // the warm-start basis — survives any (d, caps, skip) combination.
      // Row k is pair k's demand row; row num_pairs_ + l is link l's
      // capacity row.
      session_(reference_session(
          build_path_flow_lp(topo, pairs, center_demands, center_caps,
                             /*skip=*/nullptr, first_flow_var_))),
      rhs_(num_pairs_ + num_links_) {
  assert(static_cast<int>(center_demands.size()) == num_pairs_);
  base_caps_.resize(num_links_);
  for (int l = 0; l < num_links_; ++l)
    base_caps_[l] = topo.link(LinkId{l}).capacity;
  num_paths_.resize(num_pairs_);
  for (int k = 0; k < num_pairs_; ++k)
    num_paths_[k] = static_cast<int>(pairs[k].paths.size());
}

MaxFlowSolver::MaxFlowSolver(const TeInstance& inst)
    : MaxFlowSolver(inst.topo, inst.pairs,
                    std::vector<double>(inst.num_pairs(), 0.5 * inst.d_max)) {}

solver::LpSolution MaxFlowSolver::run(const std::vector<double>& d,
                                      const std::vector<double>* caps,
                                      const std::vector<bool>* skip) {
  assert(static_cast<int>(d.size()) == num_pairs_);
  for (int k = 0; k < num_pairs_; ++k)
    rhs_[k] = skip && (*skip)[k] ? 0.0 : std::max(0.0, d[k]);
  for (int l = 0; l < num_links_; ++l)
    rhs_[num_pairs_ + l] = std::max(0.0, caps ? (*caps)[l] : base_caps_[l]);
  return session_.solve(rhs_);
}

FlowResult MaxFlowSolver::solve(const std::vector<double>& d,
                                const std::vector<double>* caps,
                                const std::vector<bool>* skip) {
  const auto s = run(d, caps, skip);
  FlowResult res;
  if (s.status != solver::Status::kOptimal) return res;
  res.feasible = true;
  res.total = s.obj;
  res.flow.resize(num_pairs_);
  for (int k = 0; k < num_pairs_; ++k) {
    res.flow[k].assign(num_paths_[k], 0.0);
    if (skip && (*skip)[k]) continue;
    for (int p = 0; p < num_paths_[k]; ++p)
      res.flow[k][p] = s.x[first_flow_var_[k] + p];
  }
  return res;
}

std::optional<double> MaxFlowSolver::solve_total(
    const std::vector<double>& d, const std::vector<double>* caps,
    const std::vector<bool>* skip) {
  const auto s = run(d, caps, skip);
  if (s.status != solver::Status::kOptimal) return std::nullopt;
  return s.obj;
}

}  // namespace xplain::te
