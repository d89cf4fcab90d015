// The optimal benchmark for the load-balancing case: maximum splittable
// routing over the candidate path sets, encoded through the model layer
// (model::Model -> solver).  With the default options the encoding is a
// pure LP — splittable routing needs no integrality — and is exact; capping
// the number of active paths per commodity (hardware WCMP tables hold only
// a few next-hop groups) adds binary activation variables and turns the
// same encoding into an exact MILP solved by branch-and-bound.
#pragma once

#include <vector>

#include "lb/instance.h"
#include "solver/milp.h"
#include "te/maxflow.h"

namespace xplain::lb {

struct LbOptimalOptions {
  /// Max candidate paths a commodity may use (0 = unlimited: pure LP).
  int max_paths_per_commodity = 0;
  /// Branch-and-bound knobs for the path-limited MILP variant.
  solver::MilpOptions milp;
};

struct LbOptimalResult {
  bool feasible = false;
  double total = 0.0;
  /// flow[k][p]: optimal rate of commodity k on its candidate path p.
  std::vector<std::vector<double>> flow;
};

/// Solves the optimal splittable routing at analyzer input `x` (rates plus
/// the optional capacity-skew dimension).
LbOptimalResult solve_lb_optimal(const LbInstance& inst,
                                 const std::vector<double>& x,
                                 const LbOptimalOptions& opts = {});

/// Hot-loop twin of solve_lb_optimal's default (pure-LP, unlimited paths)
/// configuration: an adapter over te::MaxFlowSolver, which builds the LP
/// once per instance and warm-starts every solve from a fixed reference
/// basis taken at the center of the input box (rates at t_max / 2, skew at
/// the middle of its range).  Each solve maps `x` to rates clamped to
/// [0, t_max] and to skewed capacities, and moves only those rhs.  Pure
/// function of `x` — history cannot change results, preserving parallel
/// determinism with per-thread instances (see cases/thread_solver.h).
/// Owns what the mapping reads, so it may outlive `inst`.  Not
/// thread-safe.
class LbOptimalSolver {
 public:
  explicit LbOptimalSolver(const LbInstance& inst);

  /// Total only (the flow extraction solve_lb_optimal offers is not needed
  /// on the gap path).  Negative on solver failure (never in practice: the
  /// LP is always feasible and bounded).
  double solve_total(const std::vector<double>& x);

  /// The prebuilt LP structure (row/column counts feed the solver-scale
  /// reporting in bench_lb_wcmp — the ROADMAP's LU-factorization note
  /// tracks when instances reach thousands of rows).
  const solver::LpProblem& problem() const { return max_flow_.problem(); }

 private:
  double t_max_;
  bool has_skew_dim_;
  std::vector<double> base_caps_;  // per link, skew 1
  std::vector<bool> skewed_;       // per link
  std::vector<double> rates_;      // per commodity, reused across solves
  std::vector<double> caps_;       // per link, reused across solves
  te::MaxFlowSolver max_flow_;
};

/// Optimal splittable total minus WCMP total, reusing a prebuilt solver
/// (the hot path behind lb_gap; see wcmp.h).
double lb_gap_cached(const LbInstance& inst, const std::vector<double>& x,
                     LbOptimalSolver& opt);

}  // namespace xplain::lb
