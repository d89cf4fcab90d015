#include "lb/network.h"

namespace xplain::lb {

void mark_skewed_links(te::PathNetwork& lbn, const LbInstance& inst) {
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const char* mark = inst.is_skewed(l) ? "yes" : "no";
    const flowgraph::EdgeId cap_edge = lbn.link_edges[l];
    const flowgraph::NodeId link_node{lbn.net.edge(cap_edge).from};
    lbn.net.set_node_meta(link_node, "skewed", mark);
    lbn.net.set_edge_meta(cap_edge, "skewed", mark);
  }
}

}  // namespace xplain::lb
