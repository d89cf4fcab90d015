#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

int SpanLog::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::add_all(std::vector<Span>&& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::uint64_t thread_tag() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t tag = next.fetch_add(1);
  return tag;
}

void link_parents(std::vector<Span>& spans,
                  const std::vector<std::string>& children,
                  const std::vector<std::string>& parents, bool same_thread) {
  const auto named = [](const std::vector<std::string>& names,
                        const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  // Candidate parents per thread (all under key 0 when threads do not
  // matter), sorted by start.
  std::map<std::uint64_t, std::vector<int>> cands;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i)
    if (named(parents, spans[i].name))
      cands[same_thread ? spans[i].thread : 0].push_back(i);
  for (auto& [tid, idx] : cands)
    std::sort(idx.begin(), idx.end(), [&](int a, int b) {
      return spans[a].start < spans[b].start;
    });
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    Span& s = spans[i];
    if (s.parent >= 0 || !named(children, s.name)) continue;
    auto it = cands.find(same_thread ? s.thread : 0);
    if (it == cands.end()) continue;
    const std::vector<int>& idx = it->second;
    // Walk back from the last candidate starting at or before s; the first
    // one that also ends after s is the innermost container.
    auto p = std::upper_bound(
        idx.begin(), idx.end(), s.start,
        [&](std::int64_t t, int j) { return t < spans[j].start; });
    while (p != idx.begin()) {
      --p;
      if (*p != i && spans[*p].end >= s.end) {
        s.parent = *p;
        s.op = spans[*p].op;
        break;
      }
    }
  }
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (int i = 0; i < static_cast<int>(spans.size()); ++i)
    if (spans[i].parent >= 0 &&
        spans[i].parent < static_cast<int>(spans.size()))
      children[spans[i].parent].push_back(i);

  std::map<std::string, LayerTime> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = std::max<std::int64_t>(0, s.end - s.start);
    // Union of the children's intervals, clipped to the parent.
    iv.clear();
    for (int c : children[i]) {
      const std::int64_t a = std::max(spans[c].start, s.start);
      const std::int64_t b = std::min(spans[c].end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (cur_b < cur_a || a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    LayerTime& lt = out[s.name];
    ++lt.spans;
    lt.total_ms += dur / 1e6;
    lt.self_ms += (dur - covered) / 1e6;
  }
  return out;
}

namespace {

std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<std::size_t>(1, static_cast<std::size_t>(r)));
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

TailPercentile tail_percentile(const std::vector<double>& v,
                               std::size_t min_beyond) {
  TailPercentile t;
  t.n = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (v.empty() || v.size() - nearest_rank(p, v.size()) < min_beyond)
      continue;
    t.p = p;
    t.value = percentile(v, p);
    break;
  }
  return t;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "name\tstart_us\tend_us\tparent\top\tthread\n";
  for (const Span& s : spans)
    f << s.name << '\t' << s.start / 1000 << '\t' << s.end / 1000 << '\t'
      << s.parent << '\t' << s.op << '\t' << s.thread << '\n';
  return static_cast<bool>(f);
}

}  // namespace perfbench
