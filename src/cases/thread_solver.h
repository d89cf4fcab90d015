// Per-thread solver cache for the gap-evaluation sampling hot loops.
//
// A gap() call solves the benchmark LP (DP also its residual max-flow) on
// the SAME instance every time; with thousands of samples per pipeline
// stage, rebuilding the LpProblem per call was pure front-end overhead.
// Each thread keeps one prebuilt Solver per live evaluator identity: the
// structure is built and the reference basis factorized once (the
// te::MaxFlowSolver inside holds a solver::RhsSession), every sample's
// solves just move row rhs and restore that factorization.  Keyed by a
// process-unique id rather than the evaluator pointer so a recycled
// allocation can never alias a dead evaluator's cache entry; one slot per
// Solver type is enough because sampling stages drive one evaluator at a
// time.  The solver owns what it reads, so the slot may outlive the
// evaluator that filled it.  Determinism: the reference-basis warm start
// makes every solve a pure function of its inputs, so worker count and
// sample order never change results (test_parallel_determinism).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace xplain::cases {

/// A process-unique evaluator identity (never 0) for thread_solver.
inline std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> counter{0};
  // Relaxed: ids only need uniqueness, not ordering against other memory.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// This thread's Solver for evaluator `id`, built from `instance` when the
/// thread last served a different evaluator.
template <class Solver, class Instance>
Solver& thread_solver(std::uint64_t id, const Instance& instance) {
  thread_local std::uint64_t cached_id = 0;
  thread_local std::unique_ptr<Solver> solver;
  if (cached_id != id) {
    solver = std::make_unique<Solver>(instance);
    cached_id = id;
  }
  return *solver;
}

}  // namespace xplain::cases
