// Vector bin packing as pluggable HeuristicCases (paper §2 / Fig. 2 / 4b).
//
// VbpGapEvaluator and VbpCase are generic over the greedy rule
// (vbp::VbpHeuristic), so First-Fit — the paper's analyzed heuristic — and
// the Best-Fit / Next-Fit / FFD baselines all share one adapter: a case is
// just (instance, heuristic).  The Fig. 4b ball/bin network is reused for
// every rule, since placements are placements whichever rule produced them.
//
// Registered in the CaseRegistry as "first_fit" (4 balls / 3 unit bins, the
// paper's figure configuration).  Best-Fit registers itself separately in
// bf_case.cpp — the extensibility proof that new heuristics plug in without
// touching the core.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyzer/evaluator.h"
#include "scenario/spec.h"
#include "vbp/ff_model.h"
#include "vbp/heuristics.h"
#include "xplain/case.h"

namespace xplain::cases {

/// A VBP heuristic vs exact optimal packing.
class VbpGapEvaluator : public analyzer::GapEvaluator {
 public:
  VbpGapEvaluator(vbp::VbpInstance inst,
                  vbp::VbpHeuristic h = vbp::VbpHeuristic::kFirstFit,
                  double quantum = 0.01);

  int dim() const override;
  analyzer::Box input_box() const override;
  double gap(const std::vector<double>& x) const override;
  std::vector<double> quantize(const std::vector<double>& x) const override;
  std::vector<std::string> dim_names() const override;
  std::string name() const override;

  const vbp::VbpInstance& instance() const { return inst_; }
  vbp::VbpHeuristic heuristic() const { return h_; }

 private:
  vbp::VbpInstance inst_;
  vbp::VbpHeuristic h_;
  double quantum_;
};

/// Oracle for any VBP heuristic: heuristic placements vs exact optimal
/// packing, both mapped onto the Fig. 4b network's edges.  The referenced
/// network must outlive the oracle.
explain::FlowOracle make_vbp_oracle(const vbp::FfNetwork& ff,
                                    const vbp::VbpInstance& inst,
                                    vbp::VbpHeuristic h);

/// Any VBP greedy rule vs optimal on one instance (requires dims == 1 for
/// the Type-2 network; the gap path supports arbitrary dims).
class VbpCase : public HeuristicCase {
 public:
  explicit VbpCase(vbp::VbpInstance inst,
                   vbp::VbpHeuristic h = vbp::VbpHeuristic::kFirstFit,
                   double quantum = 0.01);

  /// The paper's Fig. 4b configuration: 4 balls, 3 unit bins.
  static vbp::VbpInstance paper_instance();

  /// A VBP instance scaled by the scenario (the registry's spec path):
  /// `spec.size` balls (clamped to [2, 8] — the exact-optimal benchmark is
  /// exponential in the ball count), one bin fewer than balls, unit
  /// capacity.  Bin packing has no topology, so the scenario contributes
  /// its *size* dimension; generation is deterministic (the seed selects
  /// nothing here).
  static vbp::VbpInstance scenario_instance(const scenario::ScenarioSpec& spec);

  std::string name() const override;
  std::string description() const override;
  std::unique_ptr<analyzer::GapEvaluator> make_evaluator() const override;
  const flowgraph::FlowNetwork& network() const override { return ffnet_.net; }
  explain::FlowOracle make_oracle() const override;
  std::map<std::string, double> features() const override;

  const vbp::VbpInstance& instance() const { return inst_; }
  vbp::VbpHeuristic heuristic() const { return h_; }
  const vbp::FfNetwork& vbp_network() const { return ffnet_; }

 private:
  vbp::VbpInstance inst_;
  vbp::VbpHeuristic h_;
  double quantum_;
  vbp::FfNetwork ffnet_;
};

/// First-Fit on the paper's instance ("first_fit" in the registry).
class FfCase : public VbpCase {
 public:
  explicit FfCase(vbp::VbpInstance inst)
      : VbpCase(std::move(inst), vbp::VbpHeuristic::kFirstFit) {}
  static std::shared_ptr<FfCase> paper() {
    return std::make_shared<FfCase>(paper_instance());
  }
};

}  // namespace xplain::cases
