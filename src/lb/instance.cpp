#include "lb/instance.h"

#include <algorithm>
#include <cassert>

namespace xplain::lb {

bool LbInstance::has_skew_dim() const {
  if (skew_hi <= skew_lo) return false;
  for (bool s : skewed)
    if (s) return true;
  return false;
}

double LbInstance::skew_of(const std::vector<double>& x) const {
  if (!has_skew_dim()) return 1.0;
  assert(static_cast<int>(x.size()) == input_dim());
  return x[num_commodities()];
}

std::vector<double> LbInstance::effective_capacities(double skew) const {
  std::vector<double> caps(topo.num_links());
  for (int l = 0; l < topo.num_links(); ++l) {
    const double base = topo.link(te::LinkId{l}).capacity;
    caps[l] = is_skewed(l) ? base * skew : base;
  }
  return caps;
}

LbInstance LbInstance::make(te::Topology topo,
                            const std::vector<std::pair<int, int>>& pairs,
                            int k_paths, double t_max) {
  LbInstance inst;
  inst.t_max = t_max;
  inst.commodities = te::make_pairs(topo, pairs, k_paths);
  inst.topo = std::move(topo);
  return inst;
}

void LbInstance::skew_top_tier(double lo, double hi) {
  double max_cap = 0.0;
  for (const auto& l : topo.links()) max_cap = std::max(max_cap, l.capacity);
  skewed.assign(topo.num_links(), false);
  for (int l = 0; l < topo.num_links(); ++l)
    if (topo.link(te::LinkId{l}).capacity >= max_cap - 1e-12) skewed[l] = true;
  skew_lo = lo;
  skew_hi = hi;
}

}  // namespace xplain::lb
