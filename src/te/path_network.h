// The DSL face of the path-flow model (paper Fig. 4a): pair sources
// (analyzer inputs) -> one copy node per candidate path -> one split node
// per link capped into a "met" sink, plus an "unmet" spill edge per pair.
// The objective is minimizing unmet traffic (== maximizing routed
// traffic).  Every path-routed case renders its Type-2 heatmaps on this
// network, so they all read the same way: intense blue where only the
// benchmark routes, intense red where only the heuristic does.
#pragma once

#include <vector>

#include "flowgraph/network.h"
#include "te/demand.h"

namespace xplain::te {

/// The words a case's network is labelled with; node and edge names are
/// otherwise identical across cases.
struct PathNetworkLabels {
  /// FlowNetwork name.
  const char* network;
  /// Traffic noun: the "met_<noun>" / "unmet_<noun>" sinks and the
  /// "<noun>_<pair>" source nodes.
  const char* noun;
  /// Source-node "kind" metadata; source -> path edges get "<kind>_path".
  const char* kind;
};

/// Handles into the network so rule-, oracle- and explanation-code can find
/// its pieces without string lookups.
struct PathNetwork {
  flowgraph::FlowNetwork net;
  std::vector<flowgraph::NodeId> demand_nodes;  // per pair
  std::vector<flowgraph::EdgeId> unmet_edges;   // per pair
  /// path_edges[k][p]: pair k -> path-node edge for candidate path p
  /// (p == 0 is the shortest path).
  std::vector<std::vector<flowgraph::EdgeId>> path_edges;
  /// path_link_edges[k][p]: the path-node -> link-node edges of that path.
  std::vector<std::vector<std::vector<flowgraph::EdgeId>>> path_link_edges;
  std::vector<flowgraph::EdgeId> link_edges;  // per topology link
};

/// Builds the network over `pairs` on `topo`: each source injects an input
/// in [0, input_max]; each link-capacity edge carries the topology's
/// capacity.
PathNetwork build_path_network(const Topology& topo,
                               const std::vector<TePair>& pairs,
                               double input_max,
                               const PathNetworkLabels& labels);

/// Maps per-(pair, path) flows onto the network's edges, for the
/// explainer: x[k] is pair k's offered traffic (entries past the pairs are
/// ignored).  Returns one flow value per EdgeId.
std::vector<double> path_network_flows(
    const PathNetwork& pn, const Topology& topo,
    const std::vector<TePair>& pairs, const std::vector<double>& x,
    const std::vector<std::vector<double>>& path_flows);

}  // namespace xplain::te
