#include "server/result_cache.h"

#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "util/json.h"

namespace xplain::server {

std::string ResultCache::key(const std::string& case_name,
                             const std::string& scenario_cache_key,
                             const std::string& options_fingerprint,
                             std::uint64_t seed) {
  // 0x1f (unit separator) never occurs in any leg (case names, cache keys
  // and fingerprints are printable single-line strings by construction),
  // so the join is injective — and the composed key contains neither '\n'
  // nor '\t', which keeps the one-line-per-record journal format exact.
  std::string k = case_name;
  k += '\x1f';
  k += scenario_cache_key;
  k += '\x1f';
  k += options_fingerprint;
  k += '\x1f';
  k += std::to_string(seed);
  return k;
}

ResultCache::ResultCache(const CacheOptions& opts) : opts_(opts) {
  if (opts_.journal_path.empty()) return;
  util::MutexLock lock(&mu_);
  replay_journal();
  evict_over_high_water();
  // Startup invariant: the journal equals the resident state (replay of a
  // crashed journal plus the rewrite also discards its truncated tail and
  // tombstones).  compact_locked leaves the journal open for appends.
  compact_locked();
}

ResultCache::~ResultCache() {
  if (opts_.journal_path.empty()) return;
  util::MutexLock lock(&mu_);
  compact_locked();
  journal_.close();
}

ResultCache::Outcome ResultCache::lookup_or_claim(const std::string& key,
                                                  JobSummary* out) {
  mu_.lock();
  bool counted_wait = false;
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      // Claim: insert the in-flight marker; we are now the owner.
      entries_.try_emplace(key);
      ++misses_;
      mu_.unlock();
      return Outcome::kClaimed;
    }
    Entry& e = it->second;
    if (e.state == State::kReady) {
      // Serve: refresh recency, then parse outside the lock — the exact
      // util/json round-trip is the serving path, not just storage.
      lru_.splice(lru_.begin(), lru_, e.lru);
      const std::string json = e.json;
      ++hits_;
      mu_.unlock();
      std::optional<util::Json> v = util::Json::parse(json);
      std::optional<JobSummary> s =
          v ? JobSummary::from_json_value(*v) : std::nullopt;
      if (s) {
        *out = std::move(*s);
        return Outcome::kHit;
      }
      // Unparsable entry (cannot happen for values fulfill() wrote or the
      // replay validated): self-heal by converting it into a claim we own.
      // No erase, so any still-waking waiters are undisturbed.
      mu_.lock();
      auto bad = entries_.find(key);
      if (bad != entries_.end() && bad->second.state == State::kReady) {
        retire_ready(bad);
        bad->second.state = State::kInFlight;
        journal_append(key, "");  // tombstone: never serve it again
        ++misses_;
        mu_.unlock();
        return Outcome::kClaimed;
      }
      continue;  // raced with an eviction/abandon: re-evaluate
    }
    if (e.state == State::kHandoff) {
      // An abandon designated one waiter to inherit; first claimant to get
      // here (usually the woken waiter) converts the entry back to
      // in-flight and recomputes.  Checked BEFORE the fast-fail gate so a
      // poisoned key always keeps exactly one live prober.
      e.state = State::kInFlight;
      ++misses_;
      mu_.unlock();
      return Outcome::kClaimed;
    }
    // In flight on another worker.  A key that keeps getting abandoned is
    // poisoned: fail fast instead of convoying behind the prober.
    if (auto fc = fail_counts_.find(key);
        fc != fail_counts_.end() && fc->second >= kFailFastAfter) {
      ++fast_fails_;
      mu_.unlock();
      return Outcome::kFastFail;
    }
    if (!counted_wait) {
      ++inflight_waits_;
      counted_wait = true;
    }
    ++e.waiters;
    e.cv.wait(mu_);
    --e.waiters;
    // Loop: ready -> hit, handoff -> inherit, in-flight -> wait again.
  }
}

void ResultCache::fulfill(const std::string& key, const JobSummary& s) {
  std::string json = s.to_json_value().dump(0);
  mu_.lock();
  auto it = entries_.try_emplace(key).first;  // normally the claim we own
  Entry& e = it->second;
  if (e.state == State::kReady) retire_ready(it);  // defensive overwrite
  install_ready(it, std::move(json));
  fail_counts_.erase(key);  // one success resets the poisoned-key tally
  journal_append(key, e.json);
  evict_over_high_water();
  // Notify under the lock: once mu_ is released another thread could evict
  // a waiterless entry and destroy the condvar out from under a late
  // notify.  Waiters re-take mu_, see kReady, and serve themselves.
  e.cv.notify_all();
  mu_.unlock();
}

void ResultCache::abandon(const std::string& key) {
  mu_.lock();
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.state != State::kInFlight) {
    mu_.unlock();  // not claimed (or already handed off): nothing to release
    return;
  }
  ++fail_counts_[key];
  Entry& e = it->second;
  if (e.waiters > 0) {
    // Bounded claim inheritance: designate ONE waiter (directed notify) to
    // inherit; the rest keep sleeping instead of stampeding the mutex.
    e.state = State::kHandoff;
    e.cv.notify_one();
  } else {
    entries_.erase(it);  // key claimable again; failures are never cached
  }
  mu_.unlock();
}

void ResultCache::compact() {
  util::MutexLock lock(&mu_);
  compact_locked();
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(&mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.inflight_waits = inflight_waits_;
  s.fast_fails = fast_fails_;
  s.evictions = evictions_;
  s.replayed = replayed_;
  s.entries = ready_count_;
  s.bytes = ready_bytes_;
  return s;
}

ResultCache::Stats ResultCache::recount_stats() const {
  util::MutexLock lock(&mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.inflight_waits = inflight_waits_;
  s.fast_fails = fast_fails_;
  s.evictions = evictions_;
  s.replayed = replayed_;
  for (const auto& [k, e] : entries_) {
    if (e.state != State::kReady) continue;
    ++s.entries;
    s.bytes += e.json.size();
  }
  return s;
}

void ResultCache::install_ready(EntryMap::iterator it, std::string json) {
  Entry& e = it->second;
  e.state = State::kReady;
  e.json = std::move(json);
  e.bytes = e.json.size();
  lru_.push_front(&it->first);
  e.lru = lru_.begin();
  ++ready_count_;
  ready_bytes_ += e.bytes;
}

void ResultCache::retire_ready(EntryMap::iterator it) {
  Entry& e = it->second;
  ready_bytes_ -= e.bytes;
  --ready_count_;
  lru_.erase(e.lru);
  e.json.clear();
  e.bytes = 0;
}

void ResultCache::evict_over_high_water() {
  if (opts_.max_bytes == 0) return;
  auto pos = lru_.end();
  while (ready_bytes_ > opts_.max_bytes && pos != lru_.begin()) {
    auto cur = std::prev(pos);
    if (cur == lru_.begin()) break;  // the MRU entry is never evicted
    auto it = entries_.find(**cur);
    if (it->second.waiters > 0) {
      pos = cur;  // pinned: a woken waiter still references the entry
      continue;
    }
    journal_append(it->first, "");  // tombstone
    retire_ready(it);               // erases cur from lru_; pos stays valid
    entries_.erase(it);
    ++evictions_;
  }
}

void ResultCache::replay_journal() {
  std::ifstream in(opts_.journal_path, std::ios::binary);
  if (!in) return;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // One "key \t json" record per line; an empty json is a tombstone.  The
  // LAST action per key wins.  A final line without its terminating '\n'
  // is a crash mid-append: dropped.  (Lines that fail to split or whose
  // value no longer parses are skipped too — only exact util/json
  // documents are ever served.)
  std::map<std::string, std::pair<std::size_t, std::string>> last;
  std::size_t pos = 0, line_no = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // truncated final line
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    last[line.substr(0, tab)] = {line_no++, line.substr(tab + 1)};
  }
  // Reinstall survivors in last-action order: later lines are more recent,
  // and install_ready pushes to the LRU front, so the final head is the
  // newest entry — recency survives the restart.
  std::map<std::size_t, std::pair<const std::string*, const std::string*>>
      order;
  for (const auto& [k, v] : last)
    if (!v.second.empty()) order[v.first] = {&k, &v.second};
  for (const auto& [ln, kv] : order) {
    (void)ln;
    if (!util::Json::parse(*kv.second)) continue;
    auto [it, inserted] = entries_.try_emplace(*kv.first);
    if (!inserted) continue;  // cannot happen: keys are unique in `last`
    install_ready(it, *kv.second);
    ++replayed_;
  }
}

void ResultCache::journal_append(const std::string& key,
                                 const std::string& json) {
  if (!journal_.is_open()) return;
  journal_ << key << '\t' << json << '\n';
  journal_.flush();
}

void ResultCache::compact_locked() {
  if (opts_.journal_path.empty()) return;
  if (journal_.is_open()) journal_.close();
  const std::string tmp = opts_.journal_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    // LRU tail first: replay reads oldest-to-newest and rebuilds the same
    // recency order (the file's last line becomes the MRU head again).
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const auto e = entries_.find(**it);
      out << e->first << '\t' << e->second.json << '\n';
    }
  }
  std::rename(tmp.c_str(), opts_.journal_path.c_str());
  journal_.open(opts_.journal_path, std::ios::binary | std::ios::app);
}

}  // namespace xplain::server
