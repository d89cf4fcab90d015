// Solver torture-test suite (ISSUE 6): the sparse-LU revised simplex is
// differential-tested against the retained dense-tableau oracle on ~200+
// seeded LPs — scenario-corpus instances with randomized rhs/bounds plus
// adversarial random constructions (degenerate, rank-deficient, unbounded,
// infeasible) — and the warm-start path is metamorphic-tested: a warm
// re-solve after the rhs/bound moves MaxFlowSolver and solve_milp perform
// must agree with a cold solve, and an injected mid-run refactorization
// failure must fall back to a cold restart instead of reporting an
// unverified optimum.  RhsSession solves must be bitwise the warm solve_lp
// calls they replace, on every family and through fallbacks.
//
// The pricing axis (ISSUE 8): every solve here honors XPLAIN_TEST_PRICING
// so CI runs the whole suite under both pricing rules, the partial-vs-
// Dantzig differential is asserted directly on the corpus and random
// families, and the Forrest-Tomlin machinery gets its own metamorphic
// coverage (warm == cold under random rhs moves, plus an
// injected update rejection that must cost a refactorization, never the
// answer).
//
// Every LP here derives from a fixed seed set: a failure reproduces
// identically on any machine and worker count.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "lb/optimal.h"
#include "scenario/scenario.h"
#include "solver/simplex.h"
#include "te/maxflow.h"
#include "util/random.h"

namespace xs = xplain::solver;
using xs::kInf;
using xs::LpProblem;
using xs::RowSense;
using xs::Sense;
using xs::Status;
using xplain::util::Rng;

namespace {

// Per-family LP counts; CoversAtLeast200Lps sums these (order- and
// filter-independent — no global mutable tally).
constexpr int kRandomLps = 60;
constexpr int kDegenerateLps = 25;
constexpr int kRankDeficientLps = 25;
constexpr int kUnboundedLps = 20;
constexpr int kInfeasibleLps = 20;

/// Baseline options for every solve in this suite.  XPLAIN_TEST_PRICING
/// re-runs the whole file under a chosen pricing rule — CI's sanitizer job
/// invokes it once per mode — so both pivot paths get the full torture
/// treatment: "dantzig" forces the full scan, "partial" engages the
/// candidate list even below the partial_pricing_min_cols size gate (most
/// LPs here are tiny), anything else (including unset) keeps the defaults.
xs::SimplexOptions fuzz_opts() {
  xs::SimplexOptions opts;
  const char* mode = std::getenv("XPLAIN_TEST_PRICING");
  if (mode != nullptr && std::strcmp(mode, "dantzig") == 0)
    opts.pricing = xs::PricingRule::kDantzig;
  if (mode != nullptr && std::strcmp(mode, "partial") == 0) {
    opts.pricing = xs::PricingRule::kPartial;
    opts.partial_pricing_min_cols = 0;
  }
  return opts;
}

void expect_oracle_agreement(const LpProblem& p, const char* what,
                             long tag) {
  const auto lu = xs::solve_lp(p, fuzz_opts());
  const auto oracle = xs::solve_lp_tableau(p);
  ASSERT_EQ(lu.status, oracle.status)
      << what << " #" << tag << "\n"
      << (p.num_rows() <= 12 ? p.to_string() : std::string("(large LP)"));
  if (lu.status != Status::kOptimal) return;
  EXPECT_NEAR(lu.obj, oracle.obj, 1e-6 * (1.0 + std::abs(oracle.obj)))
      << what << " #" << tag;
  EXPECT_TRUE(p.feasible(lu.x, 1e-6)) << what << " #" << tag;
}

/// Random LP exercising every bound shape and row sense (the
/// test_solver.cpp generator, with occasional empty coefficient rows and
/// larger shapes mixed in).
LpProblem random_lp(Rng& rng, int max_cols = 9, int max_rows = 7) {
  LpProblem p;
  p.sense = rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize;
  const int n = rng.uniform_int(2, max_cols);
  for (int j = 0; j < n; ++j) {
    const int shape = rng.uniform_int(0, 4);
    double lo = 0.0, hi = kInf;
    if (shape == 0) {
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 1) {
      lo = -rng.uniform(0.5, 5.0);
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 2) {
      lo = -kInf;
      hi = rng.uniform(0.0, 6.0);
    } else if (shape == 3) {
      lo = hi = rng.uniform(-2.0, 2.0);
    }
    p.add_col(lo, hi, rng.uniform(-3.0, 3.0));
  }
  const int m = rng.uniform_int(1, max_rows);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6)) coef.emplace_back(j, rng.uniform(-2.0, 3.0));
    if (coef.empty()) coef.emplace_back(rng.uniform_int(0, n - 1), 1.0);
    const int s = rng.uniform_int(0, 5);
    const RowSense sense = s <= 2   ? RowSense::kLe
                           : s <= 4 ? RowSense::kGe
                                    : RowSense::kEq;
    p.add_row(std::move(coef), sense, rng.uniform(-4.0, 12.0));
  }
  return p;
}

/// The scenario-corpus LPs: one optimal-routing problem per corpus
/// scenario, rhs-randomized per seed the way LbOptimalSolver moves them.
/// Bigger scenarios get fewer seeds (the dense oracle is O(m^2) per
/// pivot); the seed budget keeps the whole suite in ctest territory.
/// `max_rows` drops scenarios above it: the default excludes only the
/// fat-tree(16) entry (~4k rows — far past dense-oracle territory); the
/// pricing differential, which runs the sparse solver on both sides,
/// passes a higher cap to cover it too.
std::vector<std::pair<LpProblem, long>> corpus_lps(int max_rows = 600) {
  std::vector<std::pair<LpProblem, long>> out;
  long tag = 0;
  for (const auto& spec : xplain::scenario::default_corpus()) {
    const auto inst = xplain::scenario::make_lb_instance(
        spec, /*num_commodities=*/6, /*k_paths=*/2, /*t_max=*/50.0,
        /*skew_lo=*/0.5, /*skew_hi=*/1.0);
    xplain::lb::LbOptimalSolver solver(inst);
    const LpProblem& base = solver.problem();
    if (base.num_rows() > max_rows) continue;
    const int seeds = base.num_rows() > 400 ? 2 : base.num_rows() > 150 ? 4 : 20;
    Rng rng(0xC0FFEE ^ spec.seed ^ static_cast<std::uint64_t>(base.num_rows()));
    for (int s = 0; s < seeds; ++s) {
      LpProblem p = base;
      // Move every rhs multiplicatively (demands and capacities both), and
      // occasionally to exactly zero — the skip-commodity encoding.
      for (int i = 0; i < p.num_rows(); ++i) {
        const double f = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.2, 1.2);
        p.set_row_rhs(i, f * std::max(1.0, std::abs(p.row(i).rhs)));
      }
      out.emplace_back(std::move(p), tag++);
    }
  }
  return out;
}

/// Transportation-style LPs with tied rhs values and duplicated rows: the
/// classic degenerate-pivot mill.
LpProblem degenerate_lp(Rng& rng) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = rng.uniform_int(3, 6);
  for (int j = 0; j < n; ++j) p.add_col(0, 4.0, rng.uniform(0.5, 2.0));
  const double b = rng.uniform_int(1, 3);  // integral tie-prone rhs
  const int m = rng.uniform_int(2, 5);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.7)) coef.emplace_back(j, 1.0);
    if (coef.empty()) coef.emplace_back(0, 1.0);
    p.add_row(coef, RowSense::kLe, b);
    if (rng.bernoulli(0.4)) p.add_row(coef, RowSense::kLe, b);  // duplicate
  }
  return p;
}

/// row3 = row1 + row2 as equalities: consistent rhs leaves a redundant row
/// (a residual basic artificial the basis export must survive);
/// inconsistent rhs is infeasible.
LpProblem rank_deficient_lp(Rng& rng) {
  LpProblem p;
  const int n = rng.uniform_int(3, 6);
  for (int j = 0; j < n; ++j)
    p.add_col(0, rng.uniform(2.0, 8.0), rng.uniform(-2.0, 2.0));
  std::vector<std::pair<int, double>> r1, r2, r3;
  double b1 = 0, b2 = 0;
  for (int j = 0; j < n; ++j) {
    const double a1 = rng.bernoulli(0.7) ? rng.uniform(-2.0, 2.0) : 0.0;
    const double a2 = rng.bernoulli(0.7) ? rng.uniform(-2.0, 2.0) : 0.0;
    if (a1 != 0.0) r1.emplace_back(j, a1);
    if (a2 != 0.0) r2.emplace_back(j, a2);
    if (a1 + a2 != 0.0) r3.emplace_back(j, a1 + a2);
  }
  if (r1.empty()) r1.emplace_back(0, 1.0);
  if (r2.empty()) r2.emplace_back(1, 1.0);
  if (r3.empty()) r3 = r1;
  b1 = rng.uniform(0.0, 5.0);
  b2 = rng.uniform(0.0, 5.0);
  const bool consistent = rng.bernoulli(0.6);
  p.add_row(r1, RowSense::kEq, b1);
  p.add_row(r2, RowSense::kEq, b2);
  p.add_row(r3, RowSense::kEq, consistent ? b1 + b2 : b1 + b2 + 1.0);
  return p;
}

/// Rows with a nonpositive coefficient per column leave the all-positive
/// objective an escape ray.
LpProblem unbounded_lp(Rng& rng) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = rng.uniform_int(2, 5);
  for (int j = 0; j < n; ++j)
    p.add_col(rng.bernoulli(0.3) ? -kInf : 0.0, kInf, rng.uniform(0.1, 2.0));
  const int m = rng.uniform_int(1, 3);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6)) coef.emplace_back(j, -rng.uniform(0.1, 2.0));
    if (coef.empty()) coef.emplace_back(0, -1.0);
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(0.0, 5.0));
  }
  return p;
}

/// A random LP with a contradiction pinned on a random column.
LpProblem infeasible_lp(Rng& rng) {
  LpProblem p = random_lp(rng);
  const int j = rng.uniform_int(0, p.num_cols() - 1);
  p.add_row({{j, 1.0}}, RowSense::kGe, 50.0);
  p.add_row({{j, 1.0}}, RowSense::kLe, -50.0);
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential fuzz vs the tableau oracle.
// ---------------------------------------------------------------------------

TEST(SolverFuzz, CorpusLpsMatchOracle) {
  for (const auto& [p, tag] : corpus_lps())
    expect_oracle_agreement(p, "corpus", tag);
}

TEST(SolverFuzz, RandomLpsMatchOracle) {
  Rng rng(20260727);
  for (int t = 0; t < kRandomLps; ++t)
    expect_oracle_agreement(random_lp(rng), "random", t);
}

TEST(SolverFuzz, DegenerateLpsMatchOracle) {
  Rng rng(1111);
  for (int t = 0; t < kDegenerateLps; ++t)
    expect_oracle_agreement(degenerate_lp(rng), "degenerate", t);
}

TEST(SolverFuzz, RankDeficientLpsMatchOracle) {
  Rng rng(2222);
  for (int t = 0; t < kRankDeficientLps; ++t)
    expect_oracle_agreement(rank_deficient_lp(rng), "rank_deficient", t);
}

TEST(SolverFuzz, UnboundedLpsMatchOracle) {
  Rng rng(3333);
  for (int t = 0; t < kUnboundedLps; ++t)
    expect_oracle_agreement(unbounded_lp(rng), "unbounded", t);
}

TEST(SolverFuzz, InfeasibleLpsMatchOracle) {
  Rng rng(4444);
  for (int t = 0; t < kInfeasibleLps; ++t)
    expect_oracle_agreement(infeasible_lp(rng), "infeasible", t);
}

// Pricing-mode differential: partial pricing changes the pivot path, never
// the verdict.  Both sides run the production sparse solver, so — unlike
// the oracle tests above — the fat-tree(16) corpus entry is affordable and
// gets direct coverage here.
// ---------------------------------------------------------------------------

namespace {

void expect_pricing_agreement(const LpProblem& p, const char* what,
                              long tag) {
  xs::SimplexOptions dantzig, partial;
  dantzig.pricing = xs::PricingRule::kDantzig;
  partial.pricing = xs::PricingRule::kPartial;
  partial.partial_pricing_min_cols = 0;  // candidate list even on tiny LPs
  const auto a = xs::solve_lp(p, dantzig);
  const auto b = xs::solve_lp(p, partial);
  ASSERT_EQ(a.status, b.status) << what << " #" << tag;
  if (a.status != Status::kOptimal) return;
  EXPECT_NEAR(a.obj, b.obj, 1e-6 * (1.0 + std::abs(a.obj)))
      << what << " #" << tag;
  EXPECT_TRUE(p.feasible(b.x, 1e-6)) << what << " #" << tag;
}

}  // namespace

TEST(SolverPricing, ModesAgreeOnCorpus) {
  for (const auto& [p, tag] : corpus_lps(/*max_rows=*/1 << 20))
    expect_pricing_agreement(p, "corpus", tag);
}

TEST(SolverPricing, ModesAgreeOnRandomLps) {
  // A distinct seed from RandomLpsMatchOracle: fresh LPs, not a re-check.
  Rng rng(20260807);
  for (int t = 0; t < kRandomLps; ++t)
    expect_pricing_agreement(random_lp(rng), "random", t);
}

// The acceptance criterion's floor: the suite covers >= 200 distinct
// seeded LPs.  Computed from the family sizes (corpus_lps() regenerates
// deterministically), not from a global execution tally, so the check is
// immune to --gtest_filter / --gtest_shuffle.
TEST(SolverFuzz, CoversAtLeast200Lps) {
  const int total = static_cast<int>(corpus_lps().size()) + kRandomLps +
                    kDegenerateLps + kRankDeficientLps + kUnboundedLps +
                    kInfeasibleLps;
  EXPECT_GE(total, 200);
}

// ---------------------------------------------------------------------------
// Warm-start metamorphic tests: warm == cold after the rhs/bound moves the
// real callers make.
// ---------------------------------------------------------------------------

namespace {

void expect_warm_equals_cold(const LpProblem& q, const xs::Basis& warm_basis,
                             const char* what, long tag,
                             const xs::SimplexOptions& opts = fuzz_opts()) {
  const auto warm = xs::solve_lp(q, opts, &warm_basis);
  const auto cold = xs::solve_lp(q, opts);
  ASSERT_EQ(warm.status, cold.status) << what << " #" << tag;
  if (warm.status != Status::kOptimal) return;
  EXPECT_NEAR(warm.obj, cold.obj, 1e-7 * (1.0 + std::abs(cold.obj)))
      << what << " #" << tag;
  EXPECT_TRUE(q.feasible(warm.x, 1e-6)) << what << " #" << tag;
}

}  // namespace

TEST(SolverWarmMetamorphic, RhsMovesLikeMaxFlowSolver) {
  // The MaxFlowSolver pattern: fixed structure, every solve moves rhs only,
  // warm from one reference basis.
  long warm_engaged = 0;
  for (const auto& spec : xplain::scenario::default_corpus()) {
    const auto inst = xplain::scenario::make_lb_instance(spec, 6, 2, 50.0,
                                                         0.5, 1.0);
    xplain::lb::LbOptimalSolver solver(inst);
    LpProblem p = solver.problem();
    if (p.num_rows() > 150) continue;  // keep the cold re-solves cheap
    const auto ref = xs::solve_lp(p);
    ASSERT_EQ(ref.status, Status::kOptimal) << spec.name();
    Rng rng(0xABCD ^ spec.seed);
    for (int t = 0; t < 10; ++t) {
      LpProblem q = p;
      for (int i = 0; i < q.num_rows(); ++i)
        q.set_row_rhs(i, rng.uniform(0.0, 1.1) *
                             std::max(1.0, std::abs(q.row(i).rhs)));
      const long before = xs::lp_counters().warm_solves;
      expect_warm_equals_cold(q, ref.basis, spec.name().c_str(), t);
      warm_engaged += xs::lp_counters().warm_solves - before;
    }
  }
  // The dual-repair path must actually engage for most perturbations.
  EXPECT_GE(warm_engaged, 20);
}

TEST(SolverWarmMetamorphic, BoundMovesLikeSolveMilp) {
  // The branch-and-bound pattern: tighten column boxes around the parent
  // optimum, warm from the parent basis.
  Rng rng(55555);
  int solved = 0;
  for (int trial = 0; trial < 600 && solved < 120; ++trial) {
    LpProblem p = random_lp(rng);
    const auto parent = xs::solve_lp(p);
    if (parent.status != Status::kOptimal) continue;
    LpProblem q = p;
    const int cuts = rng.uniform_int(1, 3);
    for (int c = 0; c < cuts; ++c) {
      const int j = rng.uniform_int(0, p.num_cols() - 1);
      const double v = parent.x[j];
      if (rng.bernoulli(0.5)) {
        q.set_bounds(j, q.lo(j), std::min(q.hi(j), std::floor(v)));
      } else {
        q.set_bounds(j, std::max(q.lo(j), std::ceil(v)), q.hi(j));
      }
    }
    expect_warm_equals_cold(q, parent.basis, "bound_move", trial);
    ++solved;
  }
  EXPECT_GE(solved, 100);
}

TEST(SolverWarmMetamorphic, RhsMovesOnRandomLps) {
  // The rhs-move pattern over random LPs (not only the LB corpus): every
  // warm install, dual repair, and pivot below runs on the Forrest-Tomlin
  // representation.
  const xs::SimplexOptions opts = fuzz_opts();
  ASSERT_TRUE(opts.ft_updates);  // the default: FT, not the eta baseline
  Rng rng(66666);
  int checked = 0;
  for (int trial = 0; trial < 400 && checked < 80; ++trial) {
    const LpProblem p = random_lp(rng);
    const auto parent = xs::solve_lp(p, opts);
    if (parent.status != Status::kOptimal) continue;
    LpProblem q = p;
    for (int i = 0; i < q.num_rows(); ++i)
      q.set_row_rhs(i, rng.uniform(0.0, 1.1) *
                           std::max(1.0, std::abs(q.row(i).rhs)));
    expect_warm_equals_cold(q, parent.basis, "random_rhs", trial, opts);
    ++checked;
  }
  EXPECT_GE(checked, 80);
}

// ---------------------------------------------------------------------------
// Injected refactorization failure (SimplexOptions::fail_refactor_at): the
// stale-representation verdicts must stay honest.
// ---------------------------------------------------------------------------

namespace {

/// A mid-size LP with enough pivots that refactor_every=1 forces several
/// refactorizations per solve.
LpProblem pivot_mill(Rng& rng) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = 12;
  std::vector<std::pair<int, double>> sum;
  for (int j = 0; j < n; ++j) {
    const int c = p.add_col(0, rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0));
    sum.emplace_back(c, rng.uniform(0.5, 1.5));
  }
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.5)) coef.emplace_back(j, rng.uniform(0.2, 1.5));
    if (coef.empty()) coef = sum;
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(2.0, 6.0));
  }
  p.add_row(sum, RowSense::kLe, 8.0);
  return p;
}

}  // namespace

TEST(SolverRefactorFailure, ColdSolveReportsErrorNotBogusOptimum) {
  Rng rng(777);
  int injected = 0;
  for (int t = 0; t < 20; ++t) {
    LpProblem p = pivot_mill(rng);
    const auto clean = xs::solve_lp(p);
    ASSERT_EQ(clean.status, Status::kOptimal);
    // With refactor_every=1 below, refactorization calls ~= 1 (initial) +
    // pivots; the injected 3rd call needs a few pivots to be reached.
    if (clean.iterations < 4) continue;
    xs::SimplexOptions opts;
    opts.refactor_every = 1;
    opts.fail_refactor_at = 3;  // initial factorize is call 1
    const auto hurt = xs::solve_lp(p, opts);
    // Every verdict derived from the stale representation must be kError —
    // never a silently wrong optimum.
    EXPECT_EQ(hurt.status, Status::kError) << "trial " << t;
    ++injected;
  }
  EXPECT_GE(injected, 5);
}

TEST(SolverRefactorFailure, WarmSolveFallsBackToColdRestart) {
  Rng rng(888);
  int injected = 0;
  for (int t = 0; t < 40 && injected < 8; ++t) {
    LpProblem p = pivot_mill(rng);
    const auto parent = xs::solve_lp(p);
    ASSERT_EQ(parent.status, Status::kOptimal);
    LpProblem q = p;
    for (int j = 0; j < q.num_cols(); ++j)
      if (rng.bernoulli(0.4))
        q.set_bounds(j, q.lo(j), std::max(q.lo(j), q.hi(j) * 0.5));
    const auto cold = xs::solve_lp(q);

    xs::SimplexOptions opts;
    opts.refactor_every = 1;

    // Probe without injection: count this trial only if the warm path
    // engaged AND pivoted.  With refactor_every=1 the first pivot
    // immediately refactorizes, and the injected run below is bitwise
    // identical up to that call — so the probe proves factorize call #2
    // really fires there.
    const long warm_before = xs::lp_counters().warm_solves;
    const auto probe = xs::solve_lp(q, opts, &parent.basis);
    const bool engaged = xs::lp_counters().warm_solves - warm_before == 1;
    if (!engaged || probe.iterations < 1) continue;

    // Call 1 is warm_install's factorize; call 2 is the first mid-repair
    // refactorization.  Its failure poisons the warm attempt, which must
    // restart cold (whose own factorize then succeeds).
    opts.fail_refactor_at = 2;
    const auto warm = xs::solve_lp(q, opts, &parent.basis);
    ASSERT_EQ(warm.status, cold.status) << "trial " << t;
    if (warm.status == Status::kOptimal) {
      EXPECT_NEAR(warm.obj, cold.obj, 1e-7 * (1.0 + std::abs(cold.obj)));
      EXPECT_TRUE(q.feasible(warm.x, 1e-6));
    }
    ++injected;
  }
  EXPECT_GE(injected, 8);
}

// ---------------------------------------------------------------------------
// Injected Forrest-Tomlin rejection (SimplexOptions::fail_update_at): a
// rejected update is the designed fallback — it costs one refactorization
// and must never change the answer.  (The real rejections fire on small
// FTRAN pivots or elimination blow-up; the hook makes the path
// deterministic instead of waiting for a numerically nasty basis.)
// ---------------------------------------------------------------------------

TEST(SolverFtRejection, RejectedUpdateRefactorizesAndMatchesCleanSolve) {
  Rng rng(9090);
  int injected = 0;
  for (int t = 0; t < 30; ++t) {
    const LpProblem p = pivot_mill(rng);
    const xs::SimplexOptions opts = fuzz_opts();
    const auto clean = xs::solve_lp(p, opts);
    ASSERT_EQ(clean.status, Status::kOptimal) << "trial " << t;
    // fail_update_at=2 needs a second basis-update attempt to exist.
    if (clean.iterations < 3) continue;
    xs::SimplexOptions inj = opts;
    inj.fail_update_at = 2;
    const auto hurt = xs::solve_lp(p, inj);
    // Unlike a refactorization failure (which poisons the representation),
    // a rejected update recovers in-solve: same verdict, same optimum, one
    // extra refactorization on the books.
    ASSERT_EQ(hurt.status, Status::kOptimal) << "trial " << t;
    EXPECT_NEAR(hurt.obj, clean.obj, 1e-7 * (1.0 + std::abs(clean.obj)))
        << "trial " << t;
    EXPECT_TRUE(p.feasible(hurt.x, 1e-6)) << "trial " << t;
    EXPECT_GE(hurt.refactorizations, clean.refactorizations) << "trial " << t;
    ++injected;
  }
  EXPECT_GE(injected, 10);
}

// ---------------------------------------------------------------------------
// RhsSession: the sampling loops' rhs-only solves restore one checkpointed
// reference factorization instead of rebuilding the CSC and refactorizing.
// Every session solve must be bitwise the warm solve_lp from the same
// reference — same answer, same pivot path, same LP counters — apart from
// the factorizations and CSC builds the session exists to save.
// ---------------------------------------------------------------------------

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_doubles(const std::vector<double>& got,
                         const std::vector<double>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(same_bits(got[i], want[i]))
        << where << " [" << i << "]: " << got[i] << " vs " << want[i];
}

/// What one session solve did, for the checks that need more than the
/// equality itself.
struct SessionSolve {
  xs::LpSolution sol;
  xs::LpCounters delta;  // the session solve's own LpCounters delta
};

/// Solves `rhs` through the session and through solve_lp warm-started
/// from `reference` on the same problem, and expects bitwise the same
/// LpSolution and the same LpCounters delta (factorizations and CSC builds
/// aside).
SessionSolve expect_session_matches(xs::RhsSession& session,
                                    const xs::Basis& reference,
                                    const std::vector<double>& rhs,
                                    const xs::SimplexOptions& opts,
                                    const std::string& where) {
  LpProblem q = session.problem();
  for (int i = 0; i < q.num_rows(); ++i) q.set_row_rhs(i, rhs[i]);
  const xs::LpCounters c0 = xs::lp_counters();
  const xs::LpSolution want = xs::solve_lp(q, opts, &reference);
  const xs::LpCounters c1 = xs::lp_counters();
  SessionSolve got;
  got.sol = session.solve(rhs);
  const xs::LpCounters c2 = xs::lp_counters();
  got.delta = c2 - c1;

  EXPECT_EQ(got.sol.status, want.status) << where;
  EXPECT_TRUE(same_bits(got.sol.obj, want.obj))
      << where << ": obj " << got.sol.obj << " vs " << want.obj;
  expect_same_doubles(got.sol.x, want.x, where + " x");
  expect_same_doubles(got.sol.y, want.y, where + " y");
  EXPECT_EQ(got.sol.iterations, want.iterations) << where;
  EXPECT_EQ(got.sol.refactorizations, want.refactorizations) << where;
  EXPECT_EQ(got.sol.basis.basic, want.basis.basic) << where;
  EXPECT_EQ(got.sol.basis.at_upper, want.basis.at_upper) << where;

  const xs::LpCounters want_delta = c1 - c0;
  for (const auto& f : xs::kLpCounterFields) {
    if (f.member == &xs::LpCounters::factorizations ||
        f.member == &xs::LpCounters::csc_builds)
      continue;
    EXPECT_EQ(got.delta.*f.member, want_delta.*f.member)
        << where << ": " << f.key;
  }
  // The session never rebuilds the CSC, and factorizes no more than the
  // one-shot path (which factorizes at least once per solve).
  EXPECT_EQ(got.delta.csc_builds, 0) << where;
  EXPECT_LE(got.delta.factorizations, want_delta.factorizations) << where;
  return got;
}

/// A random move of every rhs: multiplicative (occasionally to exactly
/// zero, the skip-pair encoding) or additive, so signs and row activity
/// both change.
void move_rhs(const LpProblem& p, Rng& rng, std::vector<double>& rhs) {
  rhs.resize(p.num_rows());
  for (int i = 0; i < p.num_rows(); ++i) {
    const double b = p.row(i).rhs;
    if (rng.bernoulli(0.5)) {
      const double f = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 1.2);
      rhs[i] = f * std::max(1.0, std::abs(b));
    } else {
      rhs[i] = b + rng.uniform(-3.0, 3.0);
    }
  }
}

/// Binds `p` to a session warm from its own cold optimum (empty when the
/// LP has none, as MaxFlowSolver does) and checks `moves` rhs moves.
/// Returns how many session solves took the restore path.
long check_session(const LpProblem& p, Rng& rng, int moves,
                   const std::string& what) {
  const xs::SimplexOptions opts = fuzz_opts();
  const xs::LpSolution ref = xs::solve_lp(p, opts);
  const xs::Basis basis =
      ref.status == Status::kOptimal ? ref.basis : xs::Basis{};
  xs::RhsSession session(p, basis, opts);
  long warm = 0;
  std::vector<double> rhs;
  for (int t = 0; t < moves; ++t) {
    move_rhs(p, rng, rhs);
    warm += expect_session_matches(session, basis, rhs, opts,
                                   what + " move " + std::to_string(t))
                .delta.warm_solves;
  }
  return warm;
}

}  // namespace

TEST(RhsSession, MatchesWarmSolveLpOnEveryFamily) {
  Rng rng(424242);
  long warm = 0;
  const auto family = [&](const char* name, int count, auto make) {
    for (int t = 0; t < count; ++t)
      warm += check_session(make(rng), rng, 6,
                            std::string(name) + " #" + std::to_string(t));
  };
  family("random", kRandomLps, [](Rng& r) { return random_lp(r); });
  family("degenerate", kDegenerateLps, degenerate_lp);
  family("rank_deficient", kRankDeficientLps, rank_deficient_lp);
  family("unbounded", kUnboundedLps, unbounded_lp);
  family("infeasible", kInfeasibleLps, infeasible_lp);
  family("pivot_mill", 20, pivot_mill);
  // The restore path must carry most of these solves, not the fallbacks.
  EXPECT_GE(warm, 300);
}

TEST(RhsSession, MatchesWarmSolveLpOnDpAndWcmpLps) {
  // The two production bindings: MaxFlowSolver's path-flow LP behind DP
  // (fat-trees and the rest of the scenario corpus) and LbOptimalSolver's
  // behind WCMP (with the capacity-skew dimension's rows).
  Rng rng(5151);
  long warm = 0;
  int lps = 0;
  for (const auto& spec : xplain::scenario::default_corpus()) {
    const auto te_inst = xplain::scenario::make_te_instance(
        spec, /*num_pairs=*/6, /*k_paths=*/2, /*d_max=*/100.0);
    const xplain::te::MaxFlowSolver dp(te_inst);
    const auto lb_inst = xplain::scenario::make_lb_instance(
        spec, /*num_commodities=*/6, /*k_paths=*/2, /*t_max=*/50.0,
        /*skew_lo=*/0.5, /*skew_hi=*/1.0);
    const xplain::lb::LbOptimalSolver wcmp(lb_inst);
    for (const LpProblem* p : {&dp.problem(), &wcmp.problem()}) {
      if (p->num_rows() > 600) continue;  // the fat-tree(16) entry
      warm += check_session(*p, rng, 8, spec.name() + " #" +
                                            std::to_string(lps));
      ++lps;
    }
  }
  EXPECT_GE(lps, 10);
  EXPECT_GE(warm, 8L * lps);  // every path-flow solve restores
}

TEST(RhsSession, ColdFallbackThenNormalSolve) {
  // Two ways a session solve ends in the cold start, which appends an
  // artificial for every violated row: a rhs whose warm repair runs out of
  // a one-pivot budget, and one whose warm repair pivots under
  // refactor_every=1 with the second refactorization attempt failing (the
  // restore is the first), which leaves only the cold restart trustworthy.
  // Two such fallbacks back to back and then a solve at the reference rhs,
  // which must restore cleanly over what they left behind, all match
  // solve_lp.
  xs::SimplexOptions budget = fuzz_opts();
  budget.max_iterations = 1;
  xs::SimplexOptions poisoned = fuzz_opts();
  poisoned.refactor_every = 1;
  poisoned.fail_refactor_at = 2;
  Rng rng(31337);
  for (const xs::SimplexOptions& opts : {budget, poisoned}) {
    int fallbacks = 0;
    for (int trial = 0; trial < 400 && fallbacks < 30; ++trial) {
      const LpProblem p = random_lp(rng);
      const xs::LpSolution ref = xs::solve_lp(p, fuzz_opts());
      if (ref.status != Status::kOptimal) continue;
      xs::RhsSession session(p, ref.basis, opts);
      const std::string where = "trial " + std::to_string(trial) +
                                (opts.max_iterations == 1 ? " (budget)"
                                                          : " (poisoned)");
      std::vector<double> far(p.num_rows());
      int cold = 0;
      for (int k = 0; k < 2; ++k) {
        for (int i = 0; i < p.num_rows(); ++i)
          far[i] = p.row(i).rhs + rng.uniform(3.0, 12.0);
        const SessionSolve s =
            expect_session_matches(session, ref.basis, far, opts, where);
        // Only a warm attempt that pivoted can have fallen back; in both
        // settings every such solve does, and then factorizes cold.
        if (s.sol.iterations > 0 && s.delta.factorizations > 0) ++cold;
      }
      std::vector<double> home(p.num_rows());
      for (int i = 0; i < p.num_rows(); ++i) home[i] = p.row(i).rhs;
      const SessionSolve back =
          expect_session_matches(session, ref.basis, home, opts, where);
      EXPECT_EQ(back.sol.status, Status::kOptimal) << where;
      EXPECT_EQ(back.sol.iterations, 0) << where;
      EXPECT_EQ(back.delta.factorizations, 0) << where;
      fallbacks += cold;
    }
    EXPECT_GE(fallbacks, 30)
        << (opts.max_iterations == 1 ? "budget" : "poisoned");
  }
}

TEST(RhsSession, RestoreUndoesAnInjectedMidSolveRefactorization) {
  // fail_update_at=1 rejects each solve's first basis update, which
  // refactorizes the session's factors mid-solve.  The following solve
  // must still restore the reference factors: identical to solve_lp.
  xs::SimplexOptions opts = fuzz_opts();
  opts.fail_update_at = 1;
  Rng rng(2718);
  int injected = 0;
  for (int t = 0; t < 40; ++t) {
    const LpProblem p = pivot_mill(rng);
    const xs::LpSolution ref = xs::solve_lp(p, fuzz_opts());
    ASSERT_EQ(ref.status, Status::kOptimal);
    xs::RhsSession session(p, ref.basis, opts);
    std::vector<double> rhs;
    for (int k = 0; k < 4; ++k) {
      move_rhs(p, rng, rhs);
      const SessionSolve s = expect_session_matches(
          session, ref.basis, rhs, opts,
          "trial " + std::to_string(t) + " solve " + std::to_string(k));
      if (s.sol.iterations > 0 && s.delta.factorizations > 0) ++injected;
    }
  }
  EXPECT_GE(injected, 20);
}

TEST(RhsSession, TenThousandSolvesHoldTheirFootprint) {
  // Back-to-back solves hold their memory: no CSC rebuilds, and no buffer
  // keeps growing, neither on a DP fat-tree session (every solve restores)
  // nor on one alternating cold fallbacks (the poisoned setting of
  // ColdFallbackThenNormalSolve, each appending artificials) with solves
  // at the reference rhs.  glibc's in-use heap must be flat after a
  // warm-up; under a sanitizer's allocator mallinfo2 sees nothing and that
  // check is vacuous.
  xplain::scenario::ScenarioSpec spec;
  spec.kind = xplain::scenario::TopologyKind::kFatTree;
  spec.size = 4;
  const auto inst = xplain::scenario::make_te_instance(
      spec, /*num_pairs=*/12, /*k_paths=*/3, /*d_max=*/100.0);
  const xplain::te::MaxFlowSolver dp(inst);
  const LpProblem& p = dp.problem();
  const xs::LpSolution ref = xs::solve_lp(p);
  ASSERT_EQ(ref.status, Status::kOptimal);
  xs::SimplexOptions opts;  // MaxFlowSolver's: no duals, no basis export
  opts.want_duals = false;
  opts.want_basis = false;
  xs::RhsSession session(p, ref.basis, opts);

  // A random LP with >= rows whose shifted rhs makes the warm repair pivot
  // (and so, poisoned, fall back to a cold start with artificials).
  xs::SimplexOptions poisoned = fuzz_opts();
  poisoned.refactor_every = 1;
  poisoned.fail_refactor_at = 2;
  Rng lp_rng(8086);
  LpProblem q;
  xs::Basis q_ref;
  std::vector<double> far, home;
  for (bool found = false; !found;) {
    q = random_lp(lp_rng);
    const xs::LpSolution r = xs::solve_lp(q, fuzz_opts());
    bool has_ge = false;
    for (int i = 0; i < q.num_rows(); ++i)
      has_ge |= q.row(i).sense == RowSense::kGe;
    if (r.status != Status::kOptimal || !has_ge) continue;
    q_ref = r.basis;
    home.assign(q.num_rows(), 0.0);
    far.assign(q.num_rows(), 0.0);
    for (int i = 0; i < q.num_rows(); ++i) {
      home[i] = q.row(i).rhs;
      far[i] = home[i] + 10.0;
    }
    xs::RhsSession probe(q, q_ref, poisoned);
    const xs::LpCounters c = xs::lp_counters();
    const xs::LpSolution s = probe.solve(far);
    found = s.iterations > 0 &&
            (xs::lp_counters() - c).factorizations > 0;
  }
  xs::RhsSession fallback(q, q_ref, poisoned);

  Rng rng(99);
  std::vector<double> rhs;
  const auto run = [&](int n) {
    long optimal = 0;
    for (int t = 0; t < n; ++t) {
      move_rhs(p, rng, rhs);
      optimal += session.solve(rhs).status == Status::kOptimal;
      fallback.solve(t % 2 ? far : home);
    }
    return optimal;
  };
  run(1000);
  const std::size_t heap_before = mallinfo2().uordblks;
  const xs::LpCounters c0 = xs::lp_counters();
  EXPECT_EQ(run(10000), 10000);
  const xs::LpCounters d = xs::lp_counters() - c0;
  const std::size_t heap_after = mallinfo2().uordblks;
  EXPECT_EQ(d.solves, 20000);
  EXPECT_EQ(d.csc_builds, 0);
  // Every far solve falls back and factorizes; the DP solves barely do.
  EXPECT_GE(d.factorizations, 5000);
  EXPECT_LE(heap_after, heap_before + 64 * 1024)
      << "in-use heap grew from " << heap_before << " to " << heap_after;
  // And both sessions still answer exactly as solve_lp does.
  for (int t = 0; t < 20; ++t) {
    move_rhs(p, rng, rhs);
    expect_session_matches(session, ref.basis, rhs, opts,
                           "after 11000 solves, move " + std::to_string(t));
    expect_session_matches(fallback, q_ref, t % 2 ? far : home, poisoned,
                           "fallback session after 11000 solves");
  }
}
