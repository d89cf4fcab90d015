// E6 — Fig. 4b: the Type-2 heatmap for First-Fit over 3000 samples.
//
// Expected shape (paper caption): "FF places a large ball (B0) in the
// first bin, causing it to have to place the last ball differently, too" —
// red on the greedy early placements, blue on the optimal's pairing, red
// on the overflow bin for the last ball.
#include <fstream>
#include <iostream>

#include "cases/ff_case.h"
#include "explain/heatmap.h"
#include "util/timer.h"
#include "xplain/pipeline.h"
#include "bench_json.h"

int main() {
  xplain::tools::BenchReport bench_report("fig4b_ff_explain");
  using namespace xplain;
  vbp::VbpInstance inst;
  inst.num_balls = 4;
  inst.num_bins = 3;
  inst.dims = 1;
  inst.capacity = 1.0;
  auto ffn = vbp::build_ff_network(inst);
  cases::VbpGapEvaluator eval(inst);
  auto oracle =
      cases::make_vbp_oracle(ffn, inst, vbp::VbpHeuristic::kFirstFit);

  // The contiguous subspace around the paper's {1%,49%,51%,51%} instance.
  subspace::Polytope region;
  region.box.lo = {0.01, 0.40, 0.51, 0.51};
  region.box.hi = {0.08, 0.49, 0.60, 0.60};

  explain::ExplainOptions opts;
  opts.samples = 3000;
  util::Timer timer;
  auto ex = explain::explain_subspace(eval, region, ffn.net, oracle, opts);

  std::cout << "E6 / Fig. 4b — FF Type-2 heatmap (" << ex.samples_used
            << " samples, " << timer.seconds() << "s)\n\n";
  explain::print_heatmap(std::cout, ffn.net, ex);

  const double heat_b1bin0 = ex.edges[ffn.ball_bin_edges[1][0].v].heat;
  const double heat_b3bin2 = ex.edges[ffn.ball_bin_edges[3][2].v].heat;
  std::cout << "\nB1 -> bin0 heat = " << heat_b1bin0
            << "  (red: FF's greedy pairing with B0)\n"
            << "B3 -> bin2 heat = " << heat_b3bin2
            << "  (red: the cascade — only FF needs the extra bin)\n";

  std::ofstream dot("fig4b_heatmap.dot");
  dot << explain::heatmap_dot(ffn.net, ex);
  explain::write_heatmap_csv("fig4b_heatmap.csv", ffn.net, ex);
  std::cout << "(wrote fig4b_heatmap.dot / fig4b_heatmap.csv)\n";

  const bool ok = heat_b1bin0 < -0.5 && heat_b3bin2 < -0.5;
  std::cout << (ok ? "[REPRODUCED]" : "[MISMATCH]") << "\n";
  return ok ? 0 : 1;
}
