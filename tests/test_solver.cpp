// Unit and property tests for the LP (two-phase simplex) and MILP
// (branch-and-bound) solvers in src/solver.
#include <gtest/gtest.h>

#include <cmath>

#include "solver/milp.h"
#include "solver/simplex.h"
#include "util/random.h"

namespace xs = xplain::solver;
using xs::kInf;
using xs::LpProblem;
using xs::RowSense;
using xs::Sense;
using xs::Status;

namespace {

LpProblem textbook_max() {
  // max 3x + 5y  s.t.  x <= 4;  2y <= 12;  3x + 2y <= 18;  x,y >= 0.
  // Optimum (2, 6) with objective 36 (Dantzig's classic).
  LpProblem p;
  p.sense = Sense::kMaximize;
  int x = p.add_col(0, kInf, 3, false, "x");
  int y = p.add_col(0, kInf, 5, false, "y");
  p.add_row({{x, 1}}, RowSense::kLe, 4);
  p.add_row({{y, 2}}, RowSense::kLe, 12);
  p.add_row({{x, 3}, {y, 2}}, RowSense::kLe, 18);
  return p;
}

}  // namespace

TEST(Simplex, TextbookMaximization) {
  auto p = textbook_max();
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 36.0, 1e-8);
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
}

TEST(Simplex, TextbookDuals) {
  auto p = textbook_max();
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  // Known duals: y = (0, 3/2, 1); strong duality: y'b = 36.
  EXPECT_NEAR(s.y[0], 0.0, 1e-8);
  EXPECT_NEAR(s.y[1], 1.5, 1e-8);
  EXPECT_NEAR(s.y[2], 1.0, 1e-8);
  EXPECT_NEAR(s.y[0] * 4 + s.y[1] * 12 + s.y[2] * 18, 36.0, 1e-8);
}

TEST(Simplex, Minimization) {
  // min 2x + 3y s.t. x + y >= 10, x - y <= 4, x,y >= 0. Optimum x=7,y=3? No:
  // cost pushes y down, x up: try x=10,y=0 violates x-y<=4; x=7,y=3 -> 23.
  LpProblem p;
  int x = p.add_col(0, kInf, 2, false, "x");
  int y = p.add_col(0, kInf, 3, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 10);
  p.add_row({{x, 1}, {y, -1}}, RowSense::kLe, 4);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 23.0, 1e-8);
  EXPECT_NEAR(s.x[0], 7.0, 1e-8);
  EXPECT_NEAR(s.x[1], 3.0, 1e-8);
}

TEST(Simplex, EqualityRows) {
  // min x + 2y + 3z  s.t. x + y + z = 6, y + z = 4. Optimum x=2,y=4,z=0 -> 10.
  LpProblem p;
  int x = p.add_col(0, kInf, 1, false, "x");
  int y = p.add_col(0, kInf, 2, false, "y");
  int z = p.add_col(0, kInf, 3, false, "z");
  p.add_row({{x, 1}, {y, 1}, {z, 1}}, RowSense::kEq, 6);
  p.add_row({{y, 1}, {z, 1}}, RowSense::kEq, 4);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 10.0, 1e-8);
}

TEST(Simplex, UpperBounds) {
  // max x + y with x <= 2.5, y <= 1.5 via column bounds.
  LpProblem p;
  p.sense = Sense::kMaximize;
  p.add_col(0, 2.5, 1, false, "x");
  p.add_col(0, 1.5, 1, false, "y");
  p.add_row({{0, 1}, {1, 1}}, RowSense::kLe, 100);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 4.0, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x subject to x >= -5 (bound) and x + y = 0, y <= 3.
  LpProblem p;
  int x = p.add_col(-5, kInf, 1, false, "x");
  int y = p.add_col(-kInf, 3, 0, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kEq, 0);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);  // limited by y <= 3
  EXPECT_NEAR(s.obj, -3.0, 1e-8);
}

TEST(Simplex, FreeVariables) {
  // min |style| free var: min x + y, x free, y >= 0, x + y >= 2, x >= -7.
  LpProblem p;
  int x = p.add_col(-kInf, kInf, 1, false, "x");
  int y = p.add_col(0, kInf, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 2);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  int x = p.add_col(0, kInf, 1, false, "x");
  p.add_row({{x, 1}}, RowSense::kGe, 5);
  p.add_row({{x, 1}}, RowSense::kLe, 3);
  EXPECT_EQ(xs::solve_lp(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleBounds) {
  LpProblem p;
  p.add_col(5, 3, 1, false, "x");  // empty box
  p.add_row({{0, 1}}, RowSense::kLe, 100);
  EXPECT_EQ(xs::solve_lp(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  int x = p.add_col(0, kInf, 1, false, "x");
  p.add_row({{x, -1}}, RowSense::kLe, 0);
  EXPECT_EQ(xs::solve_lp(p).status, Status::kUnbounded);
}

TEST(Simplex, DegenerateProblem) {
  // Classic degeneracy (Beale-like): must not cycle.
  LpProblem p;
  p.sense = Sense::kMinimize;
  int x1 = p.add_col(0, kInf, -0.75, false);
  int x2 = p.add_col(0, kInf, 150, false);
  int x3 = p.add_col(0, kInf, -0.02, false);
  int x4 = p.add_col(0, kInf, 6, false);
  p.add_row({{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, RowSense::kLe, 0);
  p.add_row({{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, RowSense::kLe, 0);
  p.add_row({{x3, 1}}, RowSense::kLe, 1);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, -0.05, 1e-8);
}

TEST(Simplex, ZeroRowsProblem) {
  LpProblem p;
  p.add_col(1.0, 4.0, 1.0, false, "x");
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 1.0, 1e-9);
}

TEST(Simplex, FixedVariables) {
  LpProblem p;
  int x = p.add_col(2, 2, 1, false, "x");
  int y = p.add_col(0, kInf, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 5);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Property tests: random feasible LPs must satisfy weak/strong duality and
// the returned point must be primal feasible.
// ---------------------------------------------------------------------------

class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, StrongDualityAndFeasibility) {
  xplain::util::Rng rng(1234 + GetParam());
  const int n = rng.uniform_int(2, 8);
  const int m = rng.uniform_int(1, 6);
  LpProblem p;
  p.sense = Sense::kMaximize;
  for (int j = 0; j < n; ++j)
    p.add_col(0, kInf, rng.uniform(-2.0, 5.0), false);
  // Rows a'x <= b with a >= 0 and b > 0 keep the region nonempty (0 feasible)
  // and bounded in every improving direction with prob ~1 when some a_j > 0.
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) coef.emplace_back(j, rng.uniform(0.1, 3.0));
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(1.0, 20.0));
  }
  auto s = xs::solve_lp(p);
  bool improving = false;
  for (int j = 0; j < n; ++j) improving |= p.obj(j) > 0;
  if (!improving) {
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.obj, 0.0, 1e-7);
    return;
  }
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_TRUE(p.feasible(s.x, 1e-6)) << p.to_string();
  // Strong duality for max{c'x : Ax<=b, x>=0}: obj == y'b with y >= 0 and
  // A'y >= c.
  double yb = 0.0;
  for (int i = 0; i < m; ++i) {
    EXPECT_GE(s.y[i], -1e-7);
    yb += s.y[i] * p.row(i).rhs;
  }
  EXPECT_NEAR(yb, s.obj, 1e-6 * (1 + std::abs(s.obj)));
  for (int j = 0; j < n; ++j) {
    double aty = 0.0;
    for (int i = 0; i < m; ++i)
      for (const auto& [col, v] : p.row(i).coef)
        if (col == j) aty += v * s.y[i];
    EXPECT_GE(aty, p.obj(j) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Revised simplex vs. the retained dense-tableau oracle, and warm-start
// equivalence: warm solves must agree with cold solves in status and
// optimum on LPs with tightened bounds (the branch-and-bound situation).
// ---------------------------------------------------------------------------

namespace {

// Random LP exercising every bound shape (finite/infinite/negative lowers,
// finite uppers, free and fixed columns) and every row sense.
LpProblem random_bounded_lp(xplain::util::Rng& rng) {
  LpProblem p;
  p.sense = rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize;
  const int n = rng.uniform_int(2, 7);
  for (int j = 0; j < n; ++j) {
    const int shape = rng.uniform_int(0, 4);
    double lo = 0.0, hi = kInf;
    if (shape == 0) {            // [0, u]
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 1) {     // [-l, u]
      lo = -rng.uniform(0.5, 5.0);
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 2) {     // (-inf, u]
      lo = -kInf;
      hi = rng.uniform(0.0, 6.0);
    } else if (shape == 3) {     // fixed
      lo = hi = rng.uniform(-2.0, 2.0);
    }                            // else [0, inf)
    p.add_col(lo, hi, rng.uniform(-3.0, 3.0));
  }
  const int m = rng.uniform_int(1, 5);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.7)) coef.emplace_back(j, rng.uniform(-2.0, 3.0));
    if (coef.empty()) coef.emplace_back(rng.uniform_int(0, n - 1), 1.0);
    const int s = rng.uniform_int(0, 5);
    const RowSense sense = s <= 2   ? RowSense::kLe
                           : s <= 4 ? RowSense::kGe
                                    : RowSense::kEq;
    p.add_row(std::move(coef), sense, rng.uniform(-4.0, 12.0));
  }
  return p;
}

void expect_agreement(const LpProblem& p, const xs::LpSolution& a,
                      const xs::LpSolution& b, const char* what) {
  ASSERT_EQ(a.status, b.status) << what << "\n" << p.to_string();
  if (a.status != Status::kOptimal) return;
  EXPECT_NEAR(a.obj, b.obj, 1e-6 * (1.0 + std::abs(b.obj)))
      << what << "\n" << p.to_string();
  EXPECT_TRUE(p.feasible(a.x, 1e-6)) << what << "\n" << p.to_string();
}

}  // namespace

TEST(SimplexOracle, NamedCasesMatchTableau) {
  std::vector<LpProblem> cases;
  cases.push_back(textbook_max());
  {
    LpProblem p;
    int x = p.add_col(0, kInf, 2, false, "x");
    int y = p.add_col(0, kInf, 3, false, "y");
    p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 10);
    p.add_row({{x, 1}, {y, -1}}, RowSense::kLe, 4);
    cases.push_back(p);
  }
  {
    LpProblem p;
    p.sense = Sense::kMaximize;
    p.add_col(0, 2.5, 1, false, "x");
    p.add_col(0, 1.5, 1, false, "y");
    p.add_row({{0, 1}, {1, 1}}, RowSense::kLe, 100);
    cases.push_back(p);
  }
  {
    LpProblem p;
    int x = p.add_col(-5, kInf, 1, false, "x");
    int y = p.add_col(-kInf, 3, 0, false, "y");
    p.add_row({{x, 1}, {y, 1}}, RowSense::kEq, 0);
    cases.push_back(p);
  }
  for (const auto& p : cases)
    expect_agreement(p, xs::solve_lp(p), xs::solve_lp_tableau(p), "named");
}

class RandomLpOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpOracle, MatchesTableau) {
  xplain::util::Rng rng(4242 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    LpProblem p = random_bounded_lp(rng);
    expect_agreement(p, xs::solve_lp(p), xs::solve_lp_tableau(p), "random");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpOracle, ::testing::Range(0, 25));

TEST(SimplexWarmStart, WarmEqualsColdUnderBoundTightenings) {
  xplain::util::Rng rng(20240715);
  int solved = 0;
  for (int trial = 0; trial < 1200 && solved < 250; ++trial) {
    LpProblem p = random_bounded_lp(rng);
    auto cold = xs::solve_lp(p);
    if (cold.status != Status::kOptimal) continue;
    // Tighten 1-3 random column boxes the way branch-and-bound would:
    // around (or away from) the optimal point.
    LpProblem q = p;
    const int cuts = rng.uniform_int(1, 3);
    for (int c = 0; c < cuts; ++c) {
      const int j = rng.uniform_int(0, p.num_cols() - 1);
      const double x = cold.x[j];
      if (rng.bernoulli(0.5)) {
        q.set_bounds(j, q.lo(j), std::min(q.hi(j), x - rng.uniform(0.0, 1.5)));
      } else {
        q.set_bounds(j, std::max(q.lo(j), x + rng.uniform(0.0, 1.5)), q.hi(j));
      }
    }
    auto warm = xs::solve_lp(q, {}, &cold.basis);
    auto fresh = xs::solve_lp(q);
    ASSERT_EQ(warm.status, fresh.status)
        << p.to_string() << "--- tightened ---\n" << q.to_string();
    if (warm.status == Status::kOptimal) {
      EXPECT_NEAR(warm.obj, fresh.obj, 1e-6 * (1.0 + std::abs(fresh.obj)))
          << q.to_string();
      EXPECT_TRUE(q.feasible(warm.x, 1e-6)) << q.to_string();
    }
    ++solved;
  }
  // The generator must actually exercise the warm path.
  EXPECT_GE(solved, 200);
}

// ---------------------------------------------------------------------------
// Refactorization triggers: besides the blind pivot-count trigger
// (refactor_every), the eta-file nonzero bound and the fill-ratio bound
// must both fire and be exposed with sane defaults.
// ---------------------------------------------------------------------------

TEST(SimplexRefactor, KnobDefaultsAreSane) {
  const xs::SimplexOptions opts;
  EXPECT_GT(opts.refactor_every, 0);
  EXPECT_GT(opts.refactor_eta_nnz, 0);
  EXPECT_GT(opts.refactor_fill_ratio, 0.0);
  EXPECT_EQ(opts.fail_refactor_at, 0);  // failure injection off by default
  EXPECT_EQ(opts.fail_update_at, 0);
  // The performance posture: partial pricing and Forrest-Tomlin updates on
  // by default, with the size gate keeping tiny LPs on the plain Dantzig
  // scan.
  EXPECT_EQ(opts.pricing, xs::PricingRule::kPartial);
  EXPECT_TRUE(opts.ft_updates);
  EXPECT_GT(opts.partial_pricing_min_cols, 0);
}

namespace {

// Enough pivots (and eta fill) that the tight triggers below actually fire.
LpProblem refactor_mill() {
  xplain::util::Rng rng(99);
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = 10;
  for (int j = 0; j < n; ++j) p.add_col(0, 3.0, rng.uniform(0.5, 2.0));
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6)) coef.emplace_back(j, rng.uniform(0.2, 1.5));
    if (coef.empty()) coef.emplace_back(0, 1.0);
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(2.0, 6.0));
  }
  return p;
}

}  // namespace

TEST(SimplexRefactor, EtaNnzBoundTriggersEarlyRefactorization) {
  const LpProblem p = refactor_mill();
  const auto lazy = xs::solve_lp(p);  // defaults: pivot trigger only
  ASSERT_EQ(lazy.status, Status::kOptimal);
  ASSERT_GE(lazy.iterations, 3);

  xs::SimplexOptions eager;
  eager.refactor_eta_nnz = 1;  // any eta fill at all forces a refactor
  const auto tight = xs::solve_lp(p, eager);
  ASSERT_EQ(tight.status, Status::kOptimal);
  EXPECT_NEAR(tight.obj, lazy.obj, 1e-8 * (1.0 + std::abs(lazy.obj)));
  EXPECT_GT(tight.refactorizations, lazy.refactorizations);
}

TEST(SimplexRefactor, FillRatioBoundTriggersEarlyRefactorization) {
  const LpProblem p = refactor_mill();
  const auto lazy = xs::solve_lp(p);
  ASSERT_EQ(lazy.status, Status::kOptimal);

  xs::SimplexOptions eager;
  eager.refactor_eta_nnz = 0;       // isolate the ratio trigger
  eager.refactor_fill_ratio = 1e-9; // any fill exceeds the ratio
  const auto tight = xs::solve_lp(p, eager);
  ASSERT_EQ(tight.status, Status::kOptimal);
  EXPECT_NEAR(tight.obj, lazy.obj, 1e-8 * (1.0 + std::abs(lazy.obj)));
  EXPECT_GT(tight.refactorizations, lazy.refactorizations);
}

TEST(SimplexRefactor, DisabledBoundsFallBackToPivotTrigger) {
  const LpProblem p = refactor_mill();
  xs::SimplexOptions opts;
  opts.refactor_eta_nnz = 0;
  opts.refactor_fill_ratio = 0.0;
  const auto s = xs::solve_lp(p, opts);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, xs::solve_lp(p).obj, 1e-8);
}

// ---------------------------------------------------------------------------
// MILP tests.
// ---------------------------------------------------------------------------

TEST(Milp, SimpleKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binaries. Optimum: a+c = 17?
  // a,c: w=5 v=17; b+c: w=6 v=20. Optimum 20.
  LpProblem p;
  p.sense = Sense::kMaximize;
  int a = p.add_col(0, 1, 10, true, "a");
  int b = p.add_col(0, 1, 13, true, "b");
  int c = p.add_col(0, 1, 7, true, "c");
  p.add_row({{a, 3}, {b, 4}, {c, 2}}, RowSense::kLe, 6);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 20.0, 1e-7);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // min x subject to 2x >= 7, x integer -> x = 4.
  LpProblem p;
  int x = p.add_col(0, kInf, 1, true, "x");
  p.add_row({{x, 2}}, RowSense::kGe, 7);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[x], 4.0, 1e-7);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x integer.
  LpProblem p;
  p.add_col(0.4, 0.6, 1, true, "x");
  auto r = xs::solve_milp(p);
  EXPECT_EQ(r.status, Status::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x integer, x + y <= 3.5, y <= 1.2, x <= 2.9.
  // x=2 (int), y=1.2 -> 5.2.
  LpProblem p;
  p.sense = Sense::kMaximize;
  int x = p.add_col(0, 2.9, 2, true, "x");
  int y = p.add_col(0, 1.2, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kLe, 3.5);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 5.2, 1e-7);
}

TEST(Milp, EqualityWithBinaries) {
  // Choose exactly 2 of 4 binaries minimizing cost.
  LpProblem p;
  std::vector<double> cost = {5, 1, 3, 2};
  std::vector<std::pair<int, double>> sum;
  for (int j = 0; j < 4; ++j)
    sum.emplace_back(p.add_col(0, 1, cost[j], true), 1.0);
  p.add_row(sum, RowSense::kEq, 2);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 3.0, 1e-7);  // picks costs 1 and 2
}

TEST(Milp, BigMIndicatorPattern) {
  // The big-M pattern used throughout the analyzers: z=1 <=> x <= t.
  // Here force x = 7, t = 5: z must be 0.
  const double M = 100;
  LpProblem p;
  int x = p.add_col(7, 7, 0, false, "x");
  int z = p.add_col(0, 1, -1, true, "z");  // min -z pushes z up
  // x <= t + M(1-z) ; x >= t + eps - M z  with t=5, eps=0.01
  p.add_row({{x, 1}, {z, M}}, RowSense::kLe, 5 + M);
  p.add_row({{x, 1}, {z, M}}, RowSense::kGe, 5.01);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[z], 0.0, 1e-7);
}

class RandomMilpProperty : public ::testing::TestWithParam<int> {};

// Cross-validates branch-and-bound against brute-force enumeration of the
// binary columns (continuous part solved by LP for each assignment).
TEST_P(RandomMilpProperty, MatchesBruteForce) {
  xplain::util::Rng rng(777 + GetParam());
  const int nb = rng.uniform_int(2, 6);  // binaries
  const int nc = rng.uniform_int(0, 3);  // continuous
  LpProblem p;
  p.sense = Sense::kMaximize;
  for (int j = 0; j < nb; ++j) p.add_col(0, 1, rng.uniform(-3, 8), true);
  for (int j = 0; j < nc; ++j) p.add_col(0, 4, rng.uniform(-1, 3), false);
  const int m = rng.uniform_int(1, 4);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < nb + nc; ++j)
      coef.emplace_back(j, rng.uniform(0.0, 2.0));
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(1.0, 8.0));
  }
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);

  // Brute force over binary assignments.
  double best = -kInf;
  for (int mask = 0; mask < (1 << nb); ++mask) {
    LpProblem q = p;
    for (int j = 0; j < nb; ++j) {
      const double v = (mask >> j) & 1;
      q.set_bounds(j, v, v);
    }
    auto s = xs::solve_lp(q);
    if (s.status == Status::kOptimal) best = std::max(best, s.obj);
  }
  ASSERT_TRUE(std::isfinite(best));
  EXPECT_NEAR(r.obj, best, 1e-6 * (1 + std::abs(best)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMilpProperty, ::testing::Range(0, 30));

TEST(Milp, RespectsNodeLimit) {
  xplain::util::Rng rng(42);
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = 30;
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < n; ++j) {
    row.emplace_back(p.add_col(0, 1, rng.uniform(1.0, 2.0), true),
                     rng.uniform(1.0, 2.0));
  }
  p.add_row(row, RowSense::kLe, n * 0.61);
  xs::MilpOptions opts;
  opts.max_nodes = 5;
  auto r = xs::solve_milp(p, opts);
  EXPECT_LE(r.nodes, 6);
  // With so few nodes we may or may not have an incumbent; status must be
  // kLimit (found something) or kError (nothing proven yet).
  EXPECT_TRUE(r.status == Status::kLimit || r.status == Status::kError);
}

TEST(Milp, BestBoundIsValid) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  int a = p.add_col(0, 1, 3, true);
  int b = p.add_col(0, 1, 2, true);
  p.add_row({{a, 1}, {b, 1}}, RowSense::kLe, 1);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 3.0, 1e-7);
  EXPECT_GE(r.best_bound, r.obj - 1e-7);
}
