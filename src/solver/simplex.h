// Bounded-variable revised simplex.
//
// The production LP solver: column bounds are handled natively (no bound
// rows, no variable splitting — on the FF/DP MILP encodings this roughly
// halves the row count versus the old dense tableau), constraint rows are
// stored sparsely, and the optimal basis is returned in LpSolution so
// callers can warm-start the next solve.  Warm starts restore the caller's
// basis and, when bound tightenings broke primal feasibility, repair it
// with a dual-simplex phase — the classic branch-and-bound re-solve, which
// typically needs a handful of pivots instead of a from-scratch solve.
//
// Pricing is partial (candidate-list) by default with a full-scan
// optimality proof — see PricingRule; small LPs (below
// partial_pricing_min_cols columns) keep the plain Dantzig scan, where a
// full scan costs no more than a refill.  Anti-cycling is a Bland's-rule
// fallback after a run of degenerate pivots, which always full-scans.  The
// basis representation is refactorized periodically for numerical hygiene.
//
// Scope note: this is the Gurobi stand-in for the XPlain reproduction.  It
// is exact; the basis is kept as a sparse LU factorization with
// Forrest-Tomlin updates and hyper-sparse BTRAN (solver/lu.h; a
// product-form eta mode remains as a baseline) at every size, so
// FTRAN/BTRAN and pivots cost O(nnz) instead of the O(m^2) of an explicit
// dense inverse — the trade that matters once scenario instances reach
// fat-tree(16) scale (~8k rows).
#pragma once

#include <cstdint>

#include "solver/lp.h"

namespace xplain::solver {

/// Primal pricing rule (see SimplexOptions::pricing).
enum class PricingRule : std::uint8_t {
  /// Full Dantzig scan: every nonbasic column priced every pivot.  Exact
  /// and simple, but O(n) reduced costs per pivot dominates once
  /// instances reach fat-tree(16) scale (~20k columns).
  kDantzig,
  /// Partial (candidate-list) pricing: a bucket of violating columns is
  /// re-priced each pivot; when it runs dry, a rotating cyclic scan
  /// (resuming where the previous refill stopped) collects the next
  /// bucketful.  The rotation spreads entering candidates across the
  /// whole column range — a top-K-by-violation bucket collapses into
  /// Bland's rule on degenerate LPs where thousands of columns tie at the
  /// same reduced cost — and lets most refills stop early.  Optimality is
  /// only ever declared after a refill wraps the full column range and
  /// finds no violation, so results are exactly as optimal as Dantzig —
  /// only the pivot path differs.
  kPartial,
};

struct SimplexOptions {
  long max_iterations = 200'000;
  double feas_tol = 1e-7;   // primal feasibility / phase-1 residual
  double pivot_tol = 1e-9;  // minimum admissible pivot magnitude
  double cost_tol = 1e-9;   // reduced-cost optimality threshold
  /// Refactorize the basis every this many pivots (the blind trigger; the
  /// two bounds below fire earlier when the eta file grows fat).
  int refactor_every = 96;
  /// Refactorize when the eta file holds at least this many nonzeros
  /// (absolute backstop on accumulated fill; <= 0 disables).
  long refactor_eta_nnz = 65'536;
  /// Refactorize when the eta file's nonzeros exceed this multiple of the
  /// factorization's own size (nnz(L) + nnz(U), diagonal included):
  /// dense-ish spike columns then trigger an early refactorization instead
  /// of taxing every subsequent FTRAN/BTRAN (<= 0 disables).
  double refactor_fill_ratio = 8.0;
  /// Primal pricing rule.  Partial pricing is the default: it changes the
  /// pivot path, never the answer (Bland's anti-cycling rule bypasses the
  /// bucket entirely and full-scans, exactly as under kDantzig).
  PricingRule pricing = PricingRule::kPartial;
  /// kPartial prices with a plain full Dantzig scan while the column count
  /// (structurals + logicals) is at most this.  Scanning a thousand
  /// reduced costs is microseconds — the candidate list only pays once
  /// scans dominate pivots (thousands of columns) — while the rotation's
  /// path perturbation, its whole point at scale, just lengthens the pivot
  /// path on small LPs (the DP MILP sampling loops pivot ~40% more under
  /// unconditional partial pricing).  <= 0 engages the list everywhere.
  int partial_pricing_min_cols = 1024;
  /// Keep the sparse factorization fresh with Forrest-Tomlin updates
  /// (default); false falls back to the plain product-form eta file —
  /// retained as a differential baseline and for A/B benches.
  bool ft_updates = true;
  /// Test-only failure injection: the Nth refactorization attempt of a
  /// solve_lp call reports failure (1-based; 0 disables).  Exercises the
  /// stale-representation fallbacks — warm solves restart cold, cold solves
  /// report kError instead of an unverified optimum.
  int fail_refactor_at = 0;
  /// Test-only failure injection: the Nth basis-update attempt of a
  /// solve_lp call is treated as rejected (1-based; 0 disables), forcing
  /// the Forrest-Tomlin rejection -> refactorize path.
  int fail_update_at = 0;
  /// Skip computing row duals / exporting the optimal basis on kOptimal.
  /// Sampling-loop callers that use neither shave the extraction work from
  /// every one of their millions of tiny solves.
  bool want_duals = true;
  bool want_basis = true;
};

/// Solves the relaxation of `p` (integrality markers are ignored).
///
/// On kOptimal the solution carries primal values for every column, dual
/// values for every row with the convention y_i = d(obj)/d(rhs_i) for the
/// problem's stated sense, and the optimal Basis.
///
/// `warm`, when non-null, must be a basis returned by a previous solve of a
/// problem with the *same structure* — identical columns and row
/// coefficients; bounds AND row right-hand sides may differ.  (Bound moves
/// are the branch-and-bound situation; rhs moves are the resampling
/// situation, e.g. te::MaxFlowSolver.  Both only perturb primal
/// feasibility, which the dual-simplex repair phase restores — dual
/// feasibility of a basis never depends on bounds or rhs.)  The solver
/// re-installs the basis, repairs, and falls back to a cold solve if the
/// basis is stale or singular.  Warm starts never change the answer, only
/// the path to it.
LpSolution solve_lp(const LpProblem& p, const SimplexOptions& opts = {},
                    const Basis* warm = nullptr);

/// The old dense two-phase tableau implementation, retained as a reference
/// oracle for tests (exact but slow; no bounds handling beyond row
/// encodings, no warm starts).
LpSolution solve_lp_tableau(const LpProblem& p, const SimplexOptions& opts = {});

}  // namespace xplain::solver
