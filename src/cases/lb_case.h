// WCMP traffic load balancing as a pluggable HeuristicCase — the fourth
// registered case study, and the first from the data-plane family (the
// DP/FF/BF trio are control-plane allocation heuristics).
//
// The analyzer input is per-commodity traffic rates plus a capacity-skew
// dimension (lb::LbInstance): the subspace generator can localize WCMP's
// underperformance jointly in "how much traffic" and "how squeezed the
// core tier is".  The benchmark is the optimal splittable routing: te's
// path-flow LP on the gap path (lb::LbOptimalSolver), and the model-layer
// encoding (lb::solve_lb_optimal) in the Type-2 oracle.
//
// Registered in the CaseRegistry as "wcmp" with a fat-tree(4) scenario
// (8 inter-rack commodities, core uplinks skewed over [0.25, 1]).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyzer/evaluator.h"
#include "lb/network.h"
#include "lb/optimal.h"
#include "lb/wcmp.h"
#include "scenario/spec.h"
#include "xplain/case.h"

namespace xplain::cases {

/// WCMP local-greedy split vs optimal splittable routing on an LB instance.
class LbGapEvaluator : public analyzer::GapEvaluator {
 public:
  explicit LbGapEvaluator(lb::LbInstance inst, double rate_quantum = 1.0,
                          double skew_quantum = 0.01);

  int dim() const override;
  analyzer::Box input_box() const override;
  double gap(const std::vector<double>& x) const override;
  std::vector<double> quantize(const std::vector<double>& x) const override;
  std::vector<std::string> dim_names() const override;
  std::string name() const override { return "wcmp"; }

  const lb::LbInstance& instance() const { return inst_; }

 private:
  lb::LbInstance inst_;
  double rate_quantum_;
  double skew_quantum_;
  /// Identity for the per-thread optimal-routing solver cache
  /// (thread_solver.h).
  std::uint64_t cache_id_ = 0;
};

/// LB oracle: heuristic = WCMP split, benchmark = optimal splittable
/// routing, both mapped onto the LB network's edges.  The referenced
/// network and instance must outlive the oracle.
explain::FlowOracle make_lb_oracle(const te::PathNetwork& lbn,
                                   const lb::LbInstance& inst);

class LbCase : public HeuristicCase {
 public:
  explicit LbCase(lb::LbInstance inst, double rate_quantum = 1.0);

  /// The registry default: fat-tree(4), 8 inter-rack commodities, 3
  /// candidate paths each, rates in [0, 100], core uplinks skewed over
  /// [0.25, 1].
  static std::shared_ptr<LbCase> fat_tree4();

  /// WCMP over any generated scenario (the registry's spec path): the
  /// fat_tree4 commodity/path/skew regime transplanted onto `spec`'s
  /// topology — 8 commodities, 3 candidate paths, rates in [0, 100], top
  /// capacity tier skewed over [0.25, 1].
  static std::shared_ptr<LbCase> from_scenario(
      const scenario::ScenarioSpec& spec);

  std::string name() const override { return "wcmp"; }
  std::string description() const override {
    return "WCMP local-greedy traffic split vs optimal splittable routing";
  }
  std::unique_ptr<analyzer::GapEvaluator> make_evaluator() const override;
  std::unique_ptr<analyzer::HeuristicAnalyzer> make_analyzer(
      std::uint64_t seed_salt = 0) const override;
  const flowgraph::FlowNetwork& network() const override { return lbnet_.net; }
  explain::FlowOracle make_oracle() const override;
  std::map<std::string, double> features() const override;
  double gap_scale() const override { return inst_.t_max; }

  const lb::LbInstance& instance() const { return inst_; }
  const te::PathNetwork& lb_network() const { return lbnet_; }

 private:
  lb::LbInstance inst_;
  double rate_quantum_;
  te::PathNetwork lbnet_;
};

}  // namespace xplain::cases
