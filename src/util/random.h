// Deterministic RNG wrapper. Every stochastic component in XPlain takes an
// explicit Rng so experiments are reproducible bit-for-bit from a seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace xplain::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Standard normal scaled by (mean, stddev).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli with probability p of true.
  bool bernoulli(double p);

  /// A point uniform in the axis-aligned box [lo_i, hi_i) per dimension.
  std::vector<double> uniform_point(const std::vector<double>& lo,
                                    const std::vector<double>& hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          uniform_int(0, static_cast<int>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Fork a child RNG with a decorrelated seed (for per-component streams).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

  /// Derives the seed for an index-addressed work slot from a base seed.
  /// A slot's stream depends only on (base, index), which is what makes
  /// the parallel sampling loops bitwise deterministic for any worker
  /// count.  The combiner MIXES rather than offsets: with a purely
  /// additive (base, index) scheme, per-instance salts that are themselves
  /// offsets of one seed would hand (instance i, slot s+1) and
  /// (instance i+1, slot s) the same stream.
  static std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
    std::uint64_t z = base ^ (0x9E3779B97F4A7C15ull * (index + 1));
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z;
  }

 private:
  std::mt19937_64 engine_;
};

/// Tiny splitmix64 stream for per-slot sampling.  Standing up a fresh
/// mt19937_64 costs ~2.4us of state initialization — far too heavy for one
/// RNG per sample slot; splitmix64 initializes for free, passes the
/// statistical bar for uniform box sampling, and keeps the slot-stream
/// purity (value sequence is a pure function of the seed) the parallel
/// determinism contract needs.
class SlotRng {
 public:
  /// The seed is passed through a full mixing finalizer as defense in
  /// depth: a caller seeding with raw golden-ratio offsets (the stride
  /// splitmix64 uses internally) would otherwise make adjacent slots'
  /// streams one-step-shifted copies of each other.
  explicit SlotRng(std::uint64_t seed) {
    seed ^= seed >> 33;
    seed *= 0xFF51AFD7ED558CCDull;
    seed ^= seed >> 33;
    seed *= 0xC4CEB9FE1A85EC53ull;
    seed ^= seed >> 33;
    state_ = seed;
  }

  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

  /// A point uniform in the axis-aligned box [lo_i, hi_i) per dimension.
  std::vector<double> uniform_point(const std::vector<double>& lo,
                                    const std::vector<double>& hi) {
    std::vector<double> p(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i) p[i] = uniform(lo[i], hi[i]);
    return p;
  }

 private:
  std::uint64_t state_;
};

}  // namespace xplain::util
