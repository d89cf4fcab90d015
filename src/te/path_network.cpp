#include "te/path_network.h"

#include <algorithm>
#include <string>

namespace xplain::te {

PathNetwork build_path_network(const Topology& topo,
                               const std::vector<TePair>& pairs,
                               double input_max,
                               const PathNetworkLabels& labels) {
  using namespace flowgraph;
  const std::string noun = labels.noun;
  const std::string kind = labels.kind;
  PathNetwork pn;
  FlowNetwork& net = pn.net;
  net = FlowNetwork(labels.network);

  NodeId met = net.add_node("met_" + noun, NodeKind::kSink);
  NodeId unmet = net.add_node("unmet_" + noun, NodeKind::kSink);

  // Link nodes: split with the link capacity on the edge into `met`.
  std::vector<NodeId> link_nodes(topo.num_links());
  pn.link_edges.resize(topo.num_links());
  for (int l = 0; l < topo.num_links(); ++l) {
    const std::string ln = topo.link_name(LinkId{l});
    link_nodes[l] = net.add_node("link_" + ln, NodeKind::kSplit);
    net.set_node_meta(link_nodes[l], "kind", "link");
    EdgeId e = net.add_edge(link_nodes[l], met, "cap_" + ln);
    net.set_capacity(e, topo.link(LinkId{l}).capacity);
    net.set_edge_meta(e, "kind", "link_capacity");
    pn.link_edges[l] = e;
  }

  // Path nodes (copy behavior: the path's flow appears on every link).
  // One per (pair, candidate path).
  const int num_pairs = static_cast<int>(pairs.size());
  pn.path_edges.resize(num_pairs);
  pn.path_link_edges.resize(num_pairs);
  pn.demand_nodes.resize(num_pairs);
  pn.unmet_edges.resize(num_pairs);
  for (int k = 0; k < num_pairs; ++k) {
    const TePair& pair = pairs[k];
    NodeId src = net.add_node(noun + "_" + pair.name(), NodeKind::kSource);
    net.set_injection_range(src, 0.0, input_max, /*is_input=*/true);
    net.set_node_meta(src, "kind", kind);
    net.set_node_meta(src, "pair", pair.name());
    pn.demand_nodes[k] = src;

    for (std::size_t p = 0; p < pair.paths.size(); ++p) {
      const Path& path = pair.paths[p];
      NodeId path_node = net.add_node("path_" + path.name(), NodeKind::kCopy);
      net.set_node_meta(path_node, "kind", "path");
      net.set_node_meta(path_node, "hops", std::to_string(path.hops()));
      EdgeId de =
          net.add_edge(src, path_node, pair.name() + " via " + path.name());
      net.set_edge_meta(de, "kind", kind + "_path");
      net.set_edge_meta(de, "pair", pair.name());
      net.set_edge_meta(de, "path", path.name());
      net.set_edge_meta(de, "shortest", p == 0 ? "yes" : "no");
      pn.path_edges[k].push_back(de);
      std::vector<EdgeId> pls;
      for (LinkId l : path.links(topo)) {
        EdgeId pe = net.add_edge(path_node, link_nodes[l.v],
                                 path.name() + " on " + topo.link_name(l));
        net.set_edge_meta(pe, "kind", "path_link");
        pls.push_back(pe);
      }
      pn.path_link_edges[k].push_back(std::move(pls));
    }
    EdgeId ue = net.add_edge(src, unmet, pair.name() + " unmet");
    net.set_edge_meta(ue, "kind", "unmet");
    pn.unmet_edges[k] = ue;
  }

  net.set_objective(unmet, /*maximize=*/false);
  return pn;
}

std::vector<double> path_network_flows(
    const PathNetwork& pn, const Topology& topo,
    const std::vector<TePair>& pairs, const std::vector<double>& x,
    const std::vector<std::vector<double>>& path_flows) {
  std::vector<double> flows(pn.net.num_edges(), 0.0);
  std::vector<double> link_total(topo.num_links(), 0.0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    double routed = 0.0;
    for (std::size_t p = 0; p < pn.path_edges[k].size(); ++p) {
      const double f = p < path_flows[k].size() ? path_flows[k][p] : 0.0;
      flows[pn.path_edges[k][p].v] = f;
      routed += f;
      for (flowgraph::EdgeId pl : pn.path_link_edges[k][p])
        flows[pl.v] = f;  // copy node: full path flow on every link edge
      for (LinkId l : pairs[k].paths[p].links(topo)) link_total[l.v] += f;
    }
    flows[pn.unmet_edges[k].v] = std::max(0.0, x[k] - routed);
  }
  for (int l = 0; l < topo.num_links(); ++l)
    flows[pn.link_edges[l].v] = link_total[l];
  return flows;
}

}  // namespace xplain::te
