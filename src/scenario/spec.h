// ScenarioSpec: the pure-parameter description of one scenario, split out
// of scenario.h so layers that only *name* scenarios (the CaseRegistry's
// spec-parameterized factories, the experiment engine's grid) can include
// it without pulling in the te/ and lb/ generator machinery.  This header
// is deliberately dependency-free: a spec is a POD plus a label — the
// single sanctioned scenario/ include for src/xplain (tools/
// xplain_lint.py pins that).
//
// Generation stays a pure function of the spec (see scenario.h): the same
// spec — including its seed — produces the identical topology and instance
// on any machine and any worker count.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace xplain::scenario {

enum class TopologyKind { kFatTree, kWaxman, kLine, kStar };

inline const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kFatTree: return "fat_tree";
    case TopologyKind::kWaxman: return "waxman";
    case TopologyKind::kLine: return "line";
    case TopologyKind::kStar: return "star";
  }
  return "?";
}

struct ScenarioSpec {
  TopologyKind kind = TopologyKind::kFatTree;
  /// Fat-tree arity k (even), or node count for the other shapes.
  int size = 4;
  /// Base link capacity (edge tier for fat-trees; cap range top for Waxman).
  double capacity = 100.0;
  /// Waxman shape parameters (ignored by the deterministic shapes).
  double waxman_alpha = 0.7;
  double waxman_beta = 0.35;
  /// Seed for the randomized shapes AND for instance endpoint selection.
  std::uint64_t seed = 1;
  /// Failure dimensions (the production what-if axis): fail this many
  /// physical (bidirectional) links, chosen seed-deterministically among
  /// non-bridge links so the surviving topology stays connected (shapes
  /// where every link is a bridge — stars, lines — simply lose fewer or
  /// none), and multiply every surviving link capacity by
  /// `capacity_degradation` (a uniform brownout; 1.0 = healthy).
  int failed_links = 0;
  double capacity_degradation = 1.0;

  /// Corpus-stable label, e.g. "fat_tree_k4_s1" / "waxman_n12_s7".  The
  /// seed is always included — it selects instance endpoints for all kinds
  /// (and the topology for Waxman), so two specs differing only by seed are
  /// genuinely different scenarios.
  std::string name() const {
    std::string n = to_string(kind);
    n += kind == TopologyKind::kFatTree ? "_k" : "_n";
    n += std::to_string(size);
    n += "_s" + std::to_string(seed);
    return n;
  }

  /// name() plus compact suffixes for any field name() drops (capacity,
  /// Waxman shape) that differs from the spec defaults, so grid cells that
  /// differ only in those stay distinguishable in job labels and
  /// experiment JSON: "line_n2_s1_c35".  Integral values print as
  /// integers; non-integral ones fall back to the exact bit pattern
  /// (locale-independent, injective, just less pretty).
  std::string display_name() const {
    const ScenarioSpec defaults{};
    std::string n = name();
    if (capacity != defaults.capacity) n += "_c" + compact_double(capacity);
    if (kind == TopologyKind::kWaxman &&
        (waxman_alpha != defaults.waxman_alpha ||
         waxman_beta != defaults.waxman_beta))
      n += "_a" + compact_double(waxman_alpha) + "_b" +
           compact_double(waxman_beta);
    if (failed_links != defaults.failed_links)
      n += "_f" + std::to_string(failed_links);
    if (capacity_degradation != defaults.capacity_degradation)
      n += "_d" + compact_double(capacity_degradation);
    return n;
  }

  /// Injective over every generation-relevant field (name() drops capacity
  /// and the Waxman shape parameters for readability).  This is what the
  /// CaseRegistry keys its scenario-built-case cache on: two specs that
  /// could generate different instances must never share a key — hence
  /// doubles are encoded by their exact bit pattern (std::to_string would
  /// truncate to 6 decimals and alias nearby values).
  std::string cache_key() const {
    const auto bits = [](double v) {
      std::uint64_t u = 0;
      std::memcpy(&u, &v, sizeof(u));
      return std::to_string(u);
    };
    std::string k = name();
    k += "_c" + bits(capacity);
    if (kind == TopologyKind::kWaxman)
      k += "_a" + bits(waxman_alpha) + "_b" + bits(waxman_beta);
    // Failure fields joined the spec after the first committed baselines:
    // appended only when non-default so every healthy spec keeps the exact
    // key (and display name) it always had.  Still injective — the "_f"/"_d"
    // markers cannot appear inside the fixed prefix structure.
    const ScenarioSpec defaults{};
    if (failed_links != defaults.failed_links)
      k += "_f" + std::to_string(failed_links);
    if (capacity_degradation != defaults.capacity_degradation)
      k += "_d" + bits(capacity_degradation);
    return k;
  }

 private:
  static std::string compact_double(double v) {
    // Range check first: float-to-integer conversion outside long long's
    // range is UB.
    if (v > -1e15 && v < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v)))
      return std::to_string(static_cast<long long>(v));
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return "x" + std::to_string(u);
  }
};

}  // namespace xplain::scenario
