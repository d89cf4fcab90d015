#include "selftest.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "client.h"
#include "scenario/spec_json.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xplain::ExperimentSpec;
using xplain::util::Json;

std::string study_text(std::uint64_t seed) {
  std::string s;
  for (int round = 0; round < 3; ++round) {
    const ExperimentSpec spec = study_grid(seed, round, Settings{});
    s += std::to_string(spec.seed) + ";";
    for (const auto& sc : spec.scenarios) s += sc.cache_key() + ";";
  }
  return s;
}

std::string service_text(std::uint64_t seed) {
  const ServiceWorkload w = service_workload(seed, Settings{});
  std::string s = std::to_string(w.cache_max_bytes) + "\n";
  for (std::size_t i = 0; i < w.items.size(); ++i)
    s += submit_line(w.items[i], static_cast<long>(i)) + "\n";
  for (int r : w.stream) s += std::to_string(r) + ",";
  return s;
}

std::string fuzz_text(std::uint64_t seed) {
  std::string s;
  for (int run = 0; run < 3; ++run) {
    const auto o = fuzz_options(seed, run, Settings{});
    s += std::to_string(o.seed) + "/" + std::to_string(o.budget_evals) + ";";
  }
  return s;
}

std::string test_generators() {
  using Gen = std::string (*)(std::uint64_t);
  for (Gen g : {Gen(study_text), Gen(service_text), Gen(fuzz_text)}) {
    if (g(1) != g(1)) return "a generator is not deterministic for a seed";
    if (g(1) == g(2)) return "two seeds generate the same workload";
  }
  for (std::uint64_t seed : {1ull, 2ull, 20240501ull}) {
    std::vector<ExperimentSpec> specs;
    for (int round = 0; round < 4; ++round)
      specs.push_back(study_grid(seed, round, Settings{}));
    const ServiceWorkload w = service_workload(seed, Settings{});
    for (const ExperimentSpec& s : w.items) specs.push_back(s);
    if (w.prep_requests <= 0 ||
        w.prep_requests >= static_cast<int>(w.stream.size()))
      return "the service stream has no journal part or no timed part";
    const auto block = [&w](std::size_t b) {
      const auto first = w.stream.begin() +
                         static_cast<std::ptrdiff_t>(b * w.stream_block);
      std::vector<int> v(first, first + w.stream_block);
      std::sort(v.begin(), v.end());
      return v;
    };
    if (w.stream_block <= 0 ||
        w.stream.size() < 3 * static_cast<std::size_t>(w.stream_block) ||
        block(0) != block(1) || block(0) != block(2))
      return "service stream blocks do not hold the same requests";
    if (std::count(w.stream.begin(), w.stream.end(), 0) <=
        std::count(w.stream.begin(), w.stream.end(), static_cast<int>(w.items.size()) - 1))
      return "the service stream is not skewed toward the first entry";
    for (const ExperimentSpec& spec : specs) {
      if (spec.cases.empty() || spec.scenarios.empty())
        return "a generated spec has no cases or no scenarios";
      for (const std::string& c : spec.cases)
        if (!xplain::registry().contains(c)) return "unknown case " + c;
      for (const auto& sc : spec.scenarios)
        if (const std::string why = check_limits(sc); !why.empty())
          return sc.display_name() + ": " + why;
      if (xplain::Engine().expand(spec).size() !=
          spec.cases.size() * spec.scenarios.size())
        return "a generated spec does not expand to cases x scenarios";
    }
    // The wire form carries exactly the generated scenarios.
    for (const ExperimentSpec& spec : w.items) {
      const std::optional<Json> j = Json::parse(submit_line(spec, 7));
      const Json* sc = j ? j->find("spec") : nullptr;
      sc = sc ? sc->find("scenarios") : nullptr;
      if (!sc || sc->size() != spec.scenarios.size())
        return "a request line does not carry its scenarios";
      for (std::size_t i = 0; i < sc->size(); ++i) {
        const auto back = xplain::scenario::spec_from_json(sc->at(i));
        if (!back || back->cache_key() != spec.scenarios[i].cache_key())
          return "a request scenario does not round-trip";
      }
    }
  }
  return {};
}

std::string test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  if (percentile(v, 50) != 50 || percentile(v, 90) != 90 ||
      percentile(v, 100) != 100 || percentile(v, 0) != 1)
    return "nearest-rank percentile is wrong";
  TailPercentile t = tail_percentile(v);
  if (t.p != 90 || t.value != 90 || t.n != 100)
    return "100 samples must support p90 and nothing higher";
  v.pop_back();  // 99 samples: p90 keeps only 9 beyond it
  t = tail_percentile(v);
  if (t.p != 75) return "99 samples must fall back to p75";
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = tail_percentile(v);
  if (t.p != 99 || t.value != 990) return "1000 samples must support p99";
  if (tail_percentile({1, 2, 3}).p != 0)
    return "3 samples support no percentile";
  return {};
}

std::string test_self_time() {
  const auto span = [](const char* n, std::int64_t a, std::int64_t b,
                       std::uint64_t thread) {
    Span s;
    s.name = n;
    s.start = a;
    s.end = b;
    s.thread = thread;
    return s;
  };
  // A root [0,100] on thread 1 with jobs on threads 2 and 3 that overlap
  // each other and run past the root's end; job A has a nested call.
  std::vector<Span> spans = {
      span("op", 0, 100, 1),  span("job", 10, 30, 2),
      span("job", 20, 50, 3), span("job", 90, 120, 2),
      span("call", 15, 20, 2), span("call", 40, 45, 3),
  };
  link_parents(spans, {"call"}, {"job"}, true);
  link_parents(spans, {"job"}, {"op"}, false);
  if (spans[4].parent != 1 || spans[5].parent != 2 || spans[1].parent != 0 ||
      spans[3].parent != -1)
    return "parents are not linked by containment";
  spans[3].parent = 0;  // overlapping the root's end: clipped
  const auto st = self_times(spans);
  const auto ns = [](double ms) { return std::llround(ms * 1e6); };
  // op: children cover [10,50] and [90,100] -> self 100 - 50.
  if (ns(st.at("op").self_ms) != 50) return "self time of the root is wrong";
  // jobs: 20-5 + 30-5 + 30 = 70.
  if (ns(st.at("job").self_ms) != 70 || ns(st.at("job").total_ms) != 80)
    return "self time of overlapping children is wrong";
  if (ns(st.at("call").self_ms) != 10) return "leaf self time is wrong";
  return {};
}

std::string test_client(const std::string& self_exe) {
  Child d;
  if (!d.start({self_exe, "--fake-daemon", "oex"})) return "cannot spawn";
  const Exchange ok = exchange(d, "{\"op\":\"submit\"}", 10000);
  const Exchange err = exchange(d, "{\"op\":\"submit\"}", 10000);
  const Exchange dead = exchange(d, "{\"op\":\"submit\"}", 10000);
  const Exchange after = exchange(d, "{\"op\":\"submit\"}", 10000);
  d.wait(10000);
  if (ok.failed() || ok.job_events.size() != 1 || ok.accepted == 0 ||
      job_object(ok.job_events[0]) != "{\"ok\":true,\"index\":0}")
    return "a normal exchange was not read back";
  if (!err.failed() || err.daemon_lost ||
      err.error.find("boom") == std::string::npos)
    return "an error event was not counted as failed";
  if (!dead.failed() || !after.failed() || !dead.daemon_lost)
    return "a dead daemon's missing replies were not counted as failed";
  return {};
}

}  // namespace

std::string run_selftests(const std::string& self_exe) {
  for (const std::string& err :
       {test_generators(), test_percentiles(), test_self_time(),
        test_client(self_exe)})
    if (!err.empty()) return err;
  return {};
}

int fake_daemon(const std::string& script) {
  std::string line;
  for (std::size_t k = 0; std::getline(std::cin, line); ++k) {
    const char action = k < script.size() ? script[k] : 'x';
    if (action == 'o') {
      std::cout << "{\"event\":\"accepted\",\"id\":" << k << ",\"jobs\":1}\n"
                << "{\"event\":\"job\",\"id\":" << k
                << ",\"cached\":false,\"job\":{\"ok\":true,\"index\":0}}\n"
                << "{\"event\":\"done\",\"id\":" << k << "}" << std::endl;
    } else if (action == 'e') {
      std::cout << "{\"event\":\"error\",\"id\":" << k
                << ",\"message\":\"boom\"}" << std::endl;
    } else {
      return 0;
    }
  }
  return 0;
}

}  // namespace perfbench
