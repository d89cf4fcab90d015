// Demand Pinning (DP), the paper's first running example (§2, Fig. 1).
//
// DP routes every demand at or below a threshold entirely on its shortest
// path ("pins" it), then routes the remaining demands optimally on the
// residual capacity.  Three faces of the heuristic live here:
//   * an executable simulation (used by the search analyzer, the subspace
//     sampler, and the explainer — thousands of evaluations per run);
//   * the Fig. 4a DSL network (te/path_network.h under DP's labels) used
//     by the explainer's heatmaps;
//   * the pinning rule appended onto a compiled network, which is the
//     Fig. 1b MetaOpt encoding (ForceToZeroIfLeq + MaxFlow).
#pragma once

#include <string>
#include <vector>

#include "flowgraph/compiler.h"
#include "flowgraph/network.h"
#include "model/helpers.h"
#include "te/demand.h"
#include "te/maxflow.h"
#include "te/path_network.h"

namespace xplain::te {

struct DpConfig {
  double threshold = 50.0;  // T_d in Fig. 1b
};

struct DpResult {
  /// False when pinned demands alone violate a link capacity (MetaOpt's DP
  /// model treats such inputs as infeasible for the heuristic).
  bool feasible = false;
  double total = 0.0;
  std::vector<bool> pinned;               // per pair
  std::vector<std::vector<double>> flow;  // flow[k][p]
};

/// Runs the DP heuristic on demand vector `d`.  `mf`, when non-null, is a
/// prebuilt MaxFlowSolver for `inst` used for the residual solve (the
/// sampling hot loops keep one per thread instead of rebuilding the LP
/// every call — see cases/thread_solver.h).
DpResult run_demand_pinning(const TeInstance& inst, const DpConfig& cfg,
                            const std::vector<double>& d,
                            MaxFlowSolver* mf = nullptr);

/// OPT total minus DP total (>= 0 whenever DP is feasible); 0 when DP is
/// infeasible on `d` (such points are excluded, matching MetaOpt).  `mf` as
/// in run_demand_pinning (the same solver serves both embedded max-flows).
double dp_gap(const TeInstance& inst, const DpConfig& cfg,
              const std::vector<double>& d, MaxFlowSolver* mf = nullptr);

// --- DSL face (Fig. 4a). ---

/// The Fig. 4a network over the instance's pairs (te/path_network.h),
/// labelled with DP's words: "demand_<pair>" sources into "met_demand" /
/// "unmet_demand" sinks.
PathNetwork build_dp_network(const TeInstance& inst);

/// Appends the DP pinning rule (Fig. 1b) to a compiled DP network:
/// for every pair k, ForceToZeroIfLeq(d_k - f_shortest, d_k, T) plus
/// "pinned demands use only the shortest path".  Returns the per-pair
/// pinned-indicator variables.
std::vector<model::Var> add_pinning_rule(flowgraph::CompiledNetwork& c,
                                         const PathNetwork& dp,
                                         const DpConfig& cfg,
                                         const model::HelperConfig& hcfg = {});

/// Fixes the network's input injections to a concrete demand vector.
void fix_demands(flowgraph::CompiledNetwork& c, const PathNetwork& dp,
                 const std::vector<double>& d);

}  // namespace xplain::te
