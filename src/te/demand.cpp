#include "te/demand.h"

#include <utility>

namespace xplain::te {

TePair TePair::make(const Topology& topo, int src, int dst,
                    std::vector<Path> paths) {
  TePair pair;
  pair.src = src;
  pair.dst = dst;
  pair.paths = std::move(paths);
  for (const Path& path : pair.paths)
    pair.path_links.push_back(path.links(topo));
  return pair;
}

std::vector<TePair> make_pairs(
    const Topology& topo, const std::vector<std::pair<int, int>>& endpoints,
    int k_paths) {
  std::vector<TePair> pairs;
  for (const auto& [s, t] : endpoints) {
    std::vector<Path> paths = k_shortest_paths(topo, s, t, k_paths);
    if (!paths.empty())
      pairs.push_back(TePair::make(topo, s, t, std::move(paths)));
  }
  return pairs;
}

TeInstance TeInstance::make(
    Topology topo, const std::vector<std::pair<int, int>>& demand_pairs,
    int k_paths, double d_max) {
  TeInstance inst;
  inst.pairs = make_pairs(topo, demand_pairs, k_paths);
  inst.topo = std::move(topo);
  inst.d_max = d_max;
  return inst;
}

TeInstance TeInstance::fig1a_example() {
  TeInstance inst = make(Topology::fig1a(), {{0, 2}, {0, 1}, {1, 2}},
                         /*k_paths=*/2, /*d_max=*/100.0);
  // The paper's example gives only the 1~>3 demand an alternate path; 1~>2
  // and 2~>3 route solely on their direct links (Fig. 1a's table).
  inst.pairs[1].keep_paths(1);
  inst.pairs[2].keep_paths(1);
  return inst;
}

TeInstance TeInstance::all_pairs(Topology topo, int k_paths, double d_max) {
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < topo.num_nodes(); ++u)
    for (int v = 0; v < topo.num_nodes(); ++v)
      if (u != v) pairs.emplace_back(u, v);
  return make(std::move(topo), pairs, k_paths, d_max);
}

}  // namespace xplain::te
