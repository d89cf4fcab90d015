// DSL face of the load-balancing case: te's path network (Fig. 4a family,
// te/path_network.h) under LB's labels — "traffic_<pair>" sources of kind
// "commodity" into "met_traffic" / "unmet_traffic" sinks — so heatmaps
// from all four cases read the same way.  The one LB-specific addition is
// the capacity-skew marking on the link tier.
#pragma once

#include "lb/instance.h"
#include "te/path_network.h"

namespace xplain::lb {

inline constexpr te::PathNetworkLabels kNetworkLabels{
    "wcmp_load_balancing", "traffic", "commodity"};

/// Marks every link node and link-capacity edge of `lbn` (built over
/// `inst` with kNetworkLabels) "skewed" yes/no.  Link-capacity edges carry
/// the *base* (skew = 1) capacities; the capacity-skew input only exists
/// in the evaluator/oracle, which compute flows against the skewed
/// capacities.
void mark_skewed_links(te::PathNetwork& lbn, const LbInstance& inst);

}  // namespace xplain::lb
