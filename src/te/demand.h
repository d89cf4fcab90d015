// A TE problem *instance* (paper terminology): topology + demand pairs with
// candidate paths.  The analyzer's *input* is the vector of demand values,
// one per pair — the OuterVar in MetaOpt's encoding of Fig. 1b.
#pragma once

#include <string>
#include <vector>

#include "te/paths.h"
#include "te/topology.h"

namespace xplain::te {

struct TePair {
  int src = -1;
  int dst = -1;
  /// Candidate paths; paths[0] is the shortest (the pinning target).
  std::vector<Path> paths;
  /// path_links[p] == paths[p].links(topo), resolved once when the pair is
  /// made: the per-sample heuristics (WCMP, demand pinning) read these
  /// instead of hashing every hop of every path on every sample.
  std::vector<std::vector<LinkId>> path_links;

  /// A pair over `paths`, with their links resolved in `topo`.
  static TePair make(const Topology& topo, int src, int dst,
                     std::vector<Path> paths);

  /// Keeps the first n candidate paths (and their links).
  void keep_paths(std::size_t n) {
    paths.resize(n);
    path_links.resize(n);
  }

  std::string name() const {
    return std::to_string(src + 1) + "~>" + std::to_string(dst + 1);
  }
};

/// Up to `k_paths` candidate paths for each (src, dst) endpoint pair, in
/// order; pairs with no path are dropped.  The one pair-and-path
/// construction behind TeInstance::make and lb::LbInstance::make.
std::vector<TePair> make_pairs(
    const Topology& topo, const std::vector<std::pair<int, int>>& endpoints,
    int k_paths);

struct TeInstance {
  Topology topo;
  std::vector<TePair> pairs;
  /// Upper bound on each demand value (the input box is [0, d_max]^n).
  double d_max = 0.0;

  int num_pairs() const { return static_cast<int>(pairs.size()); }

  /// Builds an instance over make_pairs(topo, demand_pairs, k_paths).
  static TeInstance make(Topology topo,
                         const std::vector<std::pair<int, int>>& demand_pairs,
                         int k_paths, double d_max);

  /// The paper's running example: Fig. 1a topology with the demands
  /// 1~>3, 1~>2, 2~>3 (k = 2 candidate paths each, d_max = 100).
  static TeInstance fig1a_example();

  /// All ordered pairs (u, v), u != v, as demand pairs.
  static TeInstance all_pairs(Topology topo, int k_paths, double d_max);
};

}  // namespace xplain::te
