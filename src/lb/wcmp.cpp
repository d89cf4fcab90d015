#include "lb/wcmp.h"

#include <algorithm>
#include <cassert>

#include "lb/optimal.h"

namespace xplain::lb {

namespace {

double bottleneck(const std::vector<te::LinkId>& links,
                  const std::vector<double>& residual) {
  double b = 1e300;
  for (te::LinkId l : links) b = std::min(b, residual[l.v]);
  return std::max(0.0, b);
}

}  // namespace

WcmpResult wcmp_split(const LbInstance& inst, const std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == inst.input_dim());
  const int K = inst.num_commodities();
  WcmpResult res;
  res.flow.resize(K);
  res.unmet.assign(K, 0.0);
  std::vector<double> residual = inst.effective_capacities(inst.skew_of(x));

  std::vector<double> weight;
  for (int k = 0; k < K; ++k) {
    const auto& links = inst.commodities[k].path_links;
    res.flow[k].assign(links.size(), 0.0);
    const double demand = std::max(0.0, x[k]);
    if (demand <= 0.0) continue;

    // Local view: weight each candidate path by the residual headroom of
    // its bottleneck link, as left behind by the commodities before us.
    weight.assign(links.size(), 0.0);
    double total_weight = 0.0;
    for (std::size_t p = 0; p < links.size(); ++p) {
      weight[p] = bottleneck(links[p], residual);
      total_weight += weight[p];
    }
    if (total_weight <= 1e-12) {
      res.unmet[k] = demand;
      continue;
    }

    // One proportional pass, no recourse: the share aimed at each path is
    // clamped to what still fits at send time.  Paths sharing a link eat
    // each other's headroom — the local decision the optimal avoids.
    double routed = 0.0;
    for (std::size_t p = 0; p < links.size(); ++p) {
      const double desired = demand * weight[p] / total_weight;
      const double fits = bottleneck(links[p], residual);
      const double f = std::min(desired, fits);
      if (f <= 0.0) continue;
      res.flow[k][p] = f;
      routed += f;
      for (te::LinkId l : links[p]) residual[l.v] -= f;
    }
    res.unmet[k] = demand - routed;
    res.total += routed;
  }

  res.link_load = inst.effective_capacities(inst.skew_of(x));
  for (std::size_t l = 0; l < res.link_load.size(); ++l)
    res.link_load[l] -= residual[l];
  return res;
}

double lb_gap(const LbInstance& inst, const std::vector<double>& x) {
  const WcmpResult heur = wcmp_split(inst, x);
  const LbOptimalResult opt = solve_lb_optimal(inst, x);
  if (!opt.feasible) return 0.0;
  return std::max(0.0, opt.total - heur.total);
}

}  // namespace xplain::lb
