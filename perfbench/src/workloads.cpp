#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "scenario/spec_json.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {

namespace {

using xplain::ExperimentSpec;
using xplain::scenario::ScenarioSpec;
using xplain::scenario::TopologyKind;
using xplain::util::Json;
using xplain::util::Rng;
using xplain::util::SlotRng;

struct Cell {
  TopologyKind kind;
  int size;
};

// Sizes inside search::MutatorLimits (3..14 nodes, fat-tree k4) whose jobs
// take a few ms (bin packing) to a few hundred ms (Waxman WCMP) each.
const Cell kCells[] = {
    {TopologyKind::kLine, 4},   {TopologyKind::kLine, 6},
    {TopologyKind::kStar, 5},   {TopologyKind::kStar, 8},
    {TopologyKind::kWaxman, 6}, {TopologyKind::kWaxman, 8},
    {TopologyKind::kFatTree, 4},
};
constexpr int kNumCells = sizeof(kCells) / sizeof(kCells[0]);

ScenarioSpec make_scenario(const Cell& cell, std::uint64_t draw) {
  ScenarioSpec s;
  s.kind = cell.kind;
  s.size = cell.size;
  s.seed = 1 + draw % 1000000;
  return s;
}

// service_stream: a fixed catalog of demand-pinning chain studies (chain
// length 4, one detour capacity per catalog entry), requested with
// Zipf(0.8) popularity against a cache holding about 20% of the catalog's
// bytes.  A miss costs about 90 ms per scenario whatever the entry, and
// every other entry asks for two scenarios, so requests fall into three
// classes: hits (~0.2 ms, about a third), one-scenario misses and
// two-scenario misses.  The median lands inside the one-scenario class and
// p90 inside the two-scenario class: the median of sub-millisecond hits
// would time thread wake-ups on a shared machine more than the service.
// The stream is stratified: every block of kStreamBlock requests holds each
// entry its Zipf share of times (largest remainders), in an order the seed
// shuffles.  Independent draws made the hit share, and with it the
// throughput and the class the median falls in, swing between seeds.
// The seed draws the request order and each request's job seeds.
constexpr const char* kServiceCase = "demand_pinning_chain";
constexpr int kServiceChainLength = 4;
constexpr int kCatalogSize = 48;
constexpr double kZipfExponent = 0.8;
constexpr int kStreamBlock = 128;
constexpr int kStreamLength = 20000;
constexpr int kPrepRequests = 40;
// Approximate JSON bytes of one cached job (a JobSummary is 0.5-1 KB):
// the bound is a constant of the workload so that it does not depend on
// measured sizes.
constexpr std::size_t kBytesPerJob = 900;
constexpr double kCacheShare = 0.2;

// fuzz_search: eval budget of one fuzzer run, and the largest fat-tree and
// node count the mutator may reach.  Fat-trees past k4 are rare, expensive
// candidates that make the cost of one run swing by 2x; Waxman candidates
// of 8 to 14 nodes cost up to ten times a line and stretched the tail of
// the per-run latency (coefficient of variation 0.23 against 0.17 with the
// cap at 6 nodes).  Every other mutation dimension keeps its default range.
constexpr int kFuzzBudget = 16;
constexpr int kFuzzMaxFatTreeK = 4;
constexpr int kFuzzMaxSize = 6;

}  // namespace

int Settings::compute_threads() const {
  const int nested = std::max({1, explain_workers, significance_workers});
  return std::max({engine_workers, fuzz_workers, service_workers}) * nested;
}

const std::vector<std::string>& all_cases() {
  static const std::vector<std::string> cases = {
      "demand_pinning", "demand_pinning_chain", "first_fit", "best_fit",
      "wcmp"};
  return cases;
}

xplain::PipelineOptions trimmed_options(const Settings& s) {
  xplain::PipelineOptions o;
  o.min_gap = 1.0;
  o.subspace.max_subspaces = 1;
  o.subspace.max_expansion_rounds = 6;
  o.subspace.dkw_eps = 0.15;
  o.subspace.tree_samples = 60;
  o.subspace.significance.pairs = 30;
  o.subspace.significance.p_threshold = 0.5;
  o.subspace.significance.workers = s.significance_workers;
  o.explain.samples = 40;
  o.explain.workers = s.explain_workers;
  return o;
}

ExperimentSpec study_grid(std::uint64_t seed, int round, const Settings& s) {
  ExperimentSpec spec;
  spec.cases = all_cases();
  const std::uint64_t round_seed = Rng::derive_seed(seed, 2 * round + 1);
  for (int c = 0; c < kNumCells; ++c)
    spec.scenarios.push_back(
        make_scenario(kCells[c], Rng::derive_seed(round_seed, c)));
  spec.options = trimmed_options(s);
  spec.seed = Rng::derive_seed(seed, 2 * round + 2);
  spec.workers = s.engine_workers;
  return spec;
}

ServiceWorkload service_workload(std::uint64_t seed, const Settings& s) {
  ServiceWorkload w;
  const int nitems = kCatalogSize;
  // Catalog entry r: detour capacity 40 + 5 r (inside MutatorLimits' 25..400),
  // plus a second scenario at capacity 45 + 5 r for odd r.
  for (int r = 0; r < nitems; ++r) {
    ExperimentSpec spec;
    spec.cases = {kServiceCase};
    for (int k = 0; k < 1 + r % 2; ++k) {
      ScenarioSpec sc;
      sc.kind = TopologyKind::kLine;
      sc.size = kServiceChainLength;
      sc.capacity = 40.0 + 5.0 * r + 5.0 * k;
      sc.seed = 1 + r;
      spec.scenarios.push_back(sc);
    }
    spec.options = trimmed_options(s);
    spec.seed = Rng::derive_seed(seed, 1000 + r);
    spec.workers = s.service_workers;
    w.working_set_jobs += static_cast<int>(spec.scenarios.size());
    w.items.push_back(std::move(spec));
  }

  // Requests per entry in one block: Zipf shares, rounded by largest
  // remainders so that they sum to the block size.
  std::vector<double> share(nitems);
  double total = 0.0;
  for (int r = 0; r < nitems; ++r)
    total += share[r] = 1.0 / std::pow(r + 1.0, kZipfExponent);
  std::vector<int> count(nitems);
  std::vector<std::pair<double, int>> remainder;
  int assigned = 0;
  for (int r = 0; r < nitems; ++r) {
    const double exact = kStreamBlock * share[r] / total;
    count[r] = static_cast<int>(exact);
    assigned += count[r];
    remainder.emplace_back(count[r] - exact, r);  // most negative first
  }
  std::sort(remainder.begin(), remainder.end());
  for (int k = 0; k < kStreamBlock - assigned; ++k) ++count[remainder[k].second];
  std::vector<int> block;
  for (int r = 0; r < nitems; ++r) block.insert(block.end(), count[r], r);

  SlotRng rng(Rng::derive_seed(seed, 7));
  w.stream.reserve(kStreamLength);
  while (static_cast<int>(w.stream.size()) < kStreamLength) {
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[rng.next() % (i + 1)]);
    w.stream.insert(w.stream.end(), block.begin(), block.end());
  }
  w.stream.resize(kStreamLength);
  w.stream_block = kStreamBlock;
  w.prep_requests = kPrepRequests;
  w.cache_max_bytes = static_cast<std::size_t>(
      kCacheShare * static_cast<double>(w.working_set_jobs * kBytesPerJob));
  return w;
}

std::string submit_line(const ExperimentSpec& spec, long id) {
  const xplain::PipelineOptions& o = spec.options;
  Json sig = Json::object();
  sig.set("pairs", o.subspace.significance.pairs);
  sig.set("p_threshold", o.subspace.significance.p_threshold);
  sig.set("workers", o.subspace.significance.workers);
  Json sub = Json::object();
  sub.set("max_subspaces", o.subspace.max_subspaces);
  sub.set("max_expansion_rounds", o.subspace.max_expansion_rounds);
  sub.set("dkw_eps", o.subspace.dkw_eps);
  sub.set("tree_samples", o.subspace.tree_samples);
  sub.set("significance", std::move(sig));
  Json ex = Json::object();
  ex.set("samples", o.explain.samples);
  ex.set("workers", o.explain.workers);
  Json opts = Json::object();
  opts.set("min_gap", o.min_gap);
  opts.set("subspace", std::move(sub));
  opts.set("explain", std::move(ex));

  Json cases = Json::array();
  for (const std::string& c : spec.cases) cases.push(c);
  Json scens = Json::array();
  for (const ScenarioSpec& s : spec.scenarios)
    scens.push(xplain::scenario::spec_to_json(s));
  Json js = Json::object();
  js.set("cases", std::move(cases));
  js.set("scenarios", std::move(scens));
  js.set("seed", std::to_string(spec.seed));
  js.set("options", std::move(opts));

  Json req = Json::object();
  req.set("op", "submit");
  req.set("id", id);
  req.set("spec", std::move(js));
  return req.dump(0);
}

xplain::search::FuzzerOptions fuzz_options(std::uint64_t seed, int round,
                                           const Settings& s) {
  xplain::search::FuzzerOptions o;
  o.seed = Rng::derive_seed(seed, 5000 + round);
  o.budget_evals = kFuzzBudget;
  o.limits.max_fat_tree_k = kFuzzMaxFatTreeK;
  o.limits.max_size = kFuzzMaxSize;
  o.workers = s.fuzz_workers;
  o.probe_options.explain.workers = s.explain_workers;
  o.probe_options.subspace.significance.workers = s.significance_workers;
  return o;
}

std::string check_limits(const ScenarioSpec& spec,
                         const xplain::search::MutatorLimits& limits) {
  if (spec.kind == TopologyKind::kFatTree) {
    if (spec.size < limits.min_fat_tree_k ||
        spec.size > limits.max_fat_tree_k || spec.size % 2 != 0)
      return "fat-tree k outside the limits or odd";
  } else if (spec.size < limits.min_size || spec.size > limits.max_size) {
    return "size outside the limits";
  }
  if (spec.capacity < limits.min_capacity ||
      spec.capacity > limits.max_capacity)
    return "capacity outside the limits";
  if (spec.failed_links < 0 || spec.failed_links > limits.max_failed_links)
    return "failed_links outside the limits";
  if (spec.capacity_degradation < limits.min_degradation ||
      spec.capacity_degradation > 1.0)
    return "capacity_degradation outside the limits";
  return {};
}

}  // namespace perfbench
