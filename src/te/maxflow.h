// Optimal multi-commodity path-based max-flow (the OPT benchmark in the
// paper's DP example, and the optimal splittable routing behind the LB
// case): maximize total routed traffic subject to per-pair demand caps and
// link capacities.  This is the one path-flow LP in the tree; every case
// that routes pairs over candidate paths solves it through here.
#pragma once

#include <optional>
#include <vector>

#include "solver/lp.h"
#include "solver/simplex.h"
#include "te/demand.h"

namespace xplain::te {

struct FlowResult {
  bool feasible = false;
  double total = 0.0;
  /// flow[k][p]: flow of pair k on its candidate path p.
  std::vector<std::vector<double>> flow;

  /// Flow on each link aggregated over paths.
  std::vector<double> link_utilization(const TeInstance& inst) const;
};

/// Solves max-flow with demands `d` (one entry per pair).  Residual
/// capacities may be passed to solve the post-pinning subproblem; defaults
/// to the topology's capacities.  `skip[k]` excludes pair k (already-pinned
/// demands).
FlowResult solve_max_flow(const TeInstance& inst, const std::vector<double>& d,
                          const std::vector<double>* residual_caps = nullptr,
                          const std::vector<bool>* skip = nullptr);

/// Reusable max-flow LP over `pairs` on `topo`: the column/row structure is
/// built ONCE and every solve only moves row right-hand sides (demands,
/// capacities; a skipped pair is a demand rhs of 0) — the
/// structure-preserving perturbation the simplex warm start supports.
///
/// Every solve warm-starts from one fixed *reference basis* (a cold solve
/// at the caller's center of the input box during construction), never
/// from the previous sample's basis: a solve stays a pure function of its
/// arguments, which is what keeps the parallel sampling loops bitwise
/// deterministic for any worker count even though each worker thread owns
/// its own solver (see cases/thread_solver.h).  The solves run through a
/// solver::RhsSession bound to the LP right after the reference solve, so
/// the LP's standardized form is built and the reference basis factorized
/// once per instance, not once per solve; the answers and LP counters
/// (factorizations and CSC builds aside) are those of solve_lp warm-started
/// from the same basis.
///
/// Owns everything it reads after construction.  Not thread-safe: use one
/// instance per thread.
class MaxFlowSolver {
 public:
  /// `center_demands` (one per pair) and `center_caps` (one per link;
  /// null = the topology's capacities) are the rhs of the reference solve.
  MaxFlowSolver(const Topology& topo, const std::vector<TePair>& pairs,
                const std::vector<double>& center_demands,
                const std::vector<double>* center_caps = nullptr);

  /// Centered on a TE instance's demand box: every demand at d_max / 2,
  /// the topology's capacities.
  explicit MaxFlowSolver(const TeInstance& inst);

  /// Same contract as solve_max_flow (demands d, optional capacities,
  /// optional skipped pairs); negative rhs values are clamped to 0.
  FlowResult solve(const std::vector<double>& d,
                   const std::vector<double>* caps = nullptr,
                   const std::vector<bool>* skip = nullptr);

  /// solve() without the per-path flow extraction: the total routed, or
  /// nullopt when the solve fails (never in practice: the LP is always
  /// feasible and bounded).
  std::optional<double> solve_total(const std::vector<double>& d,
                                    const std::vector<double>* caps = nullptr,
                                    const std::vector<bool>* skip = nullptr);

  /// The prebuilt LP (its rhs are those of the reference solve).
  const solver::LpProblem& problem() const { return session_.problem(); }

 private:
  solver::LpSolution run(const std::vector<double>& d,
                         const std::vector<double>* caps,
                         const std::vector<bool>* skip);

  int num_pairs_ = 0;
  int num_links_ = 0;
  std::vector<double> base_caps_;
  std::vector<int> first_flow_var_;  // first f[k][p] column per pair
  std::vector<int> num_paths_;       // candidate paths per pair
  solver::RhsSession session_;       // the LP + its reference basis
  std::vector<double> rhs_;          // per row, reused across solves
};

}  // namespace xplain::te
