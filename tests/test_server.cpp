// Resident explanation service: result-cache round-trip + in-flight dedup
// + LRU eviction + journal persistence + claim handoff/fast-fail, and the
// Service acceptance criteria — a repeated submission is served bitwise
// identical from cache with ZERO new LP work, results match Engine::run
// for any pool size, jobs run in submit order, drain-under-load with
// concurrent submitters neither loses nor duplicates a job, a throwing
// case build strands no claimant, a restarted service replays the
// journaled working set with zero new LP work, and the xplaind request
// loop survives hostile lines (oversized grids included).  Runs under
// TSan in CI with XPLAIN_WORKERS=4 (and the persistence cases under ASan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "scenario/spec.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/service.h"
#include "solver/lp.h"
#include "util/json.h"
#include "util/thread_annotations.h"

using namespace xplain;
using server::CacheOptions;
using server::ResultCache;
using server::Service;
using server::ServiceOptions;
using server::ServiceStats;
using Outcome = ResultCache::Outcome;

namespace {

scenario::ScenarioSpec line(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

/// A cheap 6-job grid (two VBP-ish cases x three line sizes) with the
/// pipeline knobs turned down — the same shape test_engine sweeps.
ExperimentSpec small_grid() {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "demand_pinning_chain"};
  spec.scenarios = {line(3), line(4), line(5)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.tree_samples = 60;
  spec.options.subspace.significance.pairs = 30;
  spec.options.subspace.significance.p_threshold = 0.5;
  spec.options.explain.samples = 40;
  spec.grammar.p_threshold = 0.5;
  return spec;
}

std::string job_json(const JobSummary& s) { return s.to_json_value().dump(0); }

/// Minimal ok summary whose JSON size depends only on the argument LENGTHS
/// — callers pick equal-length names/gaps so LRU byte accounting is exact.
JobSummary tiny(const std::string& name, double gap, std::uint64_t seed) {
  JobSummary s;
  s.case_name = name;
  s.ok = true;
  s.best_gap_found = gap;
  s.seed = seed;
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Wall time is the one legitimately nondeterministic field of a FRESH
/// run; zero it when comparing service output against Engine output.
ExperimentSummary scrub_wall(ExperimentSummary s) {
  s.wall_seconds = 0.0;
  for (JobSummary& j : s.jobs) j.wall_seconds = 0.0;
  return s;
}

}  // namespace

// -------------------------------------------------------------- ResultCache

TEST(ResultCache, MissFulfillHitReplaysTheExactJson) {
  ResultCache cache;
  const std::string key = ResultCache::key(
      "wcmp", "fat_tree_k4_s1", "pf1:deadbeef", 0xFEEDFACECAFEBEEFull);

  JobSummary s;
  s.case_name = "wcmp";
  s.scenario = "fat_tree_k4_s1";
  s.ok = true;
  s.subspaces = 2;
  s.significant = 1;
  s.best_gap_found = 0.3251;
  s.gap_scale = 2.0;
  s.wall_seconds = 1.25;
  s.lp.solves = 17;
  s.features["pinned_sp_hops"] = 3.0;
  s.seed = 0xFEEDFACECAFEBEEFull;  // above 2^53: exercises the string path
  s.options_fingerprint = "pf1:deadbeef";

  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(key, &out), Outcome::kClaimed)
      << "first lookup is a miss";
  cache.fulfill(key, s);
  ASSERT_EQ(cache.lookup_or_claim(key, &out), Outcome::kHit);
  // The cache serves through the exact to_json_value/from_json_value
  // round-trip — the replay is bitwise identical, wall clock included.
  EXPECT_EQ(job_json(out), job_json(s));
  EXPECT_TRUE(out == s);

  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.misses, 1);
  EXPECT_EQ(cs.entries, 1u);
}

TEST(ResultCache, SecondSubmitterWaitsForTheInflightOwner) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "s", "pf", 7);
  JobSummary mine;
  ASSERT_EQ(cache.lookup_or_claim(key, &mine), Outcome::kClaimed);

  std::atomic<bool> looking{false};
  JobSummary theirs;
  std::atomic<bool> their_hit{false};
  std::thread waiter([&] {
    looking.store(true);
    JobSummary got;
    their_hit.store(cache.lookup_or_claim(key, &got) == Outcome::kHit);
    theirs = got;  // joined before read below
  });
  while (!looking.load()) std::this_thread::yield();

  JobSummary s;
  s.case_name = "c";
  s.ok = true;
  s.best_gap_found = 1.5;
  cache.fulfill(key, s);
  waiter.join();
  EXPECT_TRUE(their_hit.load()) << "the waiter must be served the result";
  EXPECT_EQ(job_json(theirs), job_json(s));
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ResultCache, AbandonReopensTheKey) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "", "pf", 1);
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(key, &out), Outcome::kClaimed);
  cache.abandon(key);  // e.g. the job failed — failures are not cached
  ASSERT_EQ(cache.lookup_or_claim(key, &out), Outcome::kClaimed)
      << "key is claimable again";
  JobSummary s;
  s.case_name = "c";
  s.ok = true;
  cache.fulfill(key, s);
  EXPECT_EQ(cache.lookup_or_claim(key, &out), Outcome::kHit);
  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.misses, 2);
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.entries, 1u);
}

TEST(ResultCache, LruEvictionPrefersLeastRecentlyServed) {
  // Probe: one entry's exact byte cost (equal-length names/gaps/seeds make
  // every entry in this test the same size).
  ResultCache probe;
  probe.fulfill(ResultCache::key("a", "s", "pf", 1), tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;
  ASSERT_GT(one, 0u);

  CacheOptions co;
  co.max_bytes = 2 * one;  // room for exactly two entries
  ResultCache cache(co);
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  const std::string kc = ResultCache::key("c", "s", "pf", 3);
  cache.fulfill(ka, tiny("a", 0.125, 1));
  cache.fulfill(kb, tiny("b", 0.375, 2));
  EXPECT_EQ(cache.stats().bytes, 2 * one) << "entries must be equal-sized";

  // Serve A: it becomes most-recent, so the third insert must evict B —
  // least-recently-SERVED, not least-recently-inserted.
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kHit);
  cache.fulfill(kc, tiny("c", 0.625, 3));

  EXPECT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kHit) << "A survived";
  EXPECT_EQ(cache.lookup_or_claim(kc, &out), Outcome::kHit) << "C survived";
  EXPECT_EQ(cache.lookup_or_claim(kb, &out), Outcome::kClaimed)
      << "B was the LRU victim";
  cache.abandon(kb);

  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.evictions, 1);
  EXPECT_EQ(cs.entries, 2u);
  EXPECT_LE(cs.bytes, co.max_bytes) << "high-water mark holds";
}

TEST(ResultCache, MruEntryIsNeverEvictedEvenWhenOversized) {
  ResultCache probe;
  probe.fulfill(ResultCache::key("a", "s", "pf", 1), tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;

  CacheOptions co;
  co.max_bytes = one / 2;  // smaller than any single entry
  ResultCache cache(co);
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  // A single oversized result is retained (not thrashed) — the MRU entry
  // is exempt from eviction by design.
  cache.fulfill(ka, tiny("a", 0.125, 1));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0);
  // The next fulfill displaces it: A is now the LRU tail and goes.
  cache.fulfill(kb, tiny("b", 0.375, 2));
  JobSummary out;
  EXPECT_EQ(cache.lookup_or_claim(kb, &out), Outcome::kHit);
  EXPECT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kClaimed);
  cache.abandon(ka);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCache, InflightClaimsAreNeverEvicted) {
  ResultCache probe;
  probe.fulfill(ResultCache::key("a", "s", "pf", 1), tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;

  CacheOptions co;
  co.max_bytes = 2 * one;
  ResultCache cache(co);
  const std::string kx = ResultCache::key("x", "s", "pf", 9);
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(kx, &out), Outcome::kClaimed);

  // Churn enough ready entries through the cache to evict everything
  // evictable; the in-flight claim must ride it out untouched.
  cache.fulfill(ResultCache::key("a", "s", "pf", 1), tiny("a", 0.125, 1));
  cache.fulfill(ResultCache::key("b", "s", "pf", 2), tiny("b", 0.375, 2));
  cache.fulfill(ResultCache::key("c", "s", "pf", 3), tiny("c", 0.625, 3));
  EXPECT_GE(cache.stats().evictions, 1);

  cache.fulfill(kx, tiny("x", 0.875, 9));
  EXPECT_EQ(cache.lookup_or_claim(kx, &out), Outcome::kHit)
      << "the claim survived the eviction churn and served its value";
}

TEST(ResultCache, StatsCountersMatchTheDebugRecount) {
  ResultCache probe;
  probe.fulfill(ResultCache::key("a", "s", "pf", 1), tiny("a", 0.125, 1));
  CacheOptions co;
  co.max_bytes = 2 * probe.stats().bytes;
  ResultCache cache(co);

  auto check = [&](const char* when) {
    const ResultCache::Stats fast = cache.stats();
    const ResultCache::Stats slow = cache.recount_stats();
    EXPECT_EQ(fast.entries, slow.entries) << when;
    EXPECT_EQ(fast.bytes, slow.bytes) << when;
  };
  check("empty");
  JobSummary out;
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  ASSERT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kClaimed);
  check("one in-flight claim (zero ready bytes)");
  cache.fulfill(ka, tiny("a", 0.125, 1));
  check("one ready entry");
  cache.fulfill(ResultCache::key("b", "s", "pf", 2), tiny("b", 0.375, 2));
  cache.fulfill(ResultCache::key("c", "s", "pf", 3), tiny("c", 0.625, 3));
  check("after an eviction");
  EXPECT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kClaimed);
  cache.abandon(ka);
  check("after a claim + abandon");
}

TEST(ResultCache, AbandonHandsTheClaimToExactlyOneWaiter) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "s", "pf", 7);
  JobSummary mine;
  ASSERT_EQ(cache.lookup_or_claim(key, &mine), Outcome::kClaimed);

  const int kWaiters = 3;
  std::atomic<int> claimed{0}, hits{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      JobSummary got;
      const Outcome o = cache.lookup_or_claim(key, &got);
      if (o == Outcome::kClaimed) {
        // The inheritor recomputes and publishes; the others then hit.
        claimed.fetch_add(1);
        cache.fulfill(key, tiny("c", 0.125, 7));
      } else if (o == Outcome::kHit) {
        hits.fetch_add(1);
      }
    });
  }
  // inflight_waits is incremented in the same critical section that parks
  // the waiter, so this rendezvous means all three are actually waiting.
  while (cache.stats().inflight_waits < kWaiters) std::this_thread::yield();

  cache.abandon(key);  // our job "failed": ONE waiter inherits the claim
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(claimed.load(), 1) << "exactly one waiter inherits";
  EXPECT_EQ(hits.load(), kWaiters - 1) << "the rest are served its result";
  JobSummary out;
  EXPECT_EQ(cache.lookup_or_claim(key, &out), Outcome::kHit);
}

TEST(ResultCache, RepeatedAbandonsFastFailOtherClaimants) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "s", "pf", 1);
  JobSummary out;
  for (int i = 0; i < ResultCache::kFailFastAfter; ++i) {
    ASSERT_EQ(cache.lookup_or_claim(key, &out), Outcome::kClaimed) << i;
    cache.abandon(key);
  }
  // The key is poisoned.  One prober still gets through (the claim), but
  // anyone else arriving while it is in flight fails fast instead of
  // convoying behind a job that keeps dying.
  ASSERT_EQ(cache.lookup_or_claim(key, &out), Outcome::kClaimed);
  EXPECT_EQ(cache.lookup_or_claim(key, &out), Outcome::kFastFail);
  EXPECT_EQ(cache.stats().fast_fails, 1);

  // One success heals the key completely.
  cache.fulfill(key, tiny("c", 0.125, 1));
  EXPECT_EQ(cache.lookup_or_claim(key, &out), Outcome::kHit);
  EXPECT_EQ(cache.stats().fast_fails, 1) << "no new fast-fails after heal";
}

TEST(ResultCache, JournalReplayServesPriorEntriesByteForByte) {
  const std::string path = "test_server_replay.journal";
  std::remove(path.c_str());
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  const JobSummary a = tiny("a", 0.125, 1), b = tiny("b", 0.375, 2);
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    cache.fulfill(ka, a);
    cache.fulfill(kb, b);
  }  // destructor compacts (clean shutdown)
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    EXPECT_EQ(cache.stats().replayed, 2);
    JobSummary out;
    ASSERT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kHit);
    EXPECT_EQ(job_json(out), job_json(a)) << "replay is byte-for-byte";
    ASSERT_EQ(cache.lookup_or_claim(kb, &out), Outcome::kHit);
    EXPECT_EQ(job_json(out), job_json(b));
  }
  std::remove(path.c_str());
}

TEST(ResultCache, JournalToleratesTruncationAndGarbage) {
  const std::string path = "test_server_truncated.journal";
  std::remove(path.c_str());
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    cache.fulfill(ka, tiny("a", 0.125, 1));
    cache.fulfill(kb, tiny("b", 0.375, 2));
  }
  {
    // Simulated corruption: a tab-less line, a line whose value is not
    // JSON, and a final append cut off mid-line by a "crash".
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "garbage line without a tab\n";
    out << "kx\tnot json at all\n";
    out << "ky\t{\"trunc";  // no terminating newline
  }
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    EXPECT_EQ(cache.stats().replayed, 2) << "only the intact records load";
    JobSummary out;
    EXPECT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kHit);
    EXPECT_EQ(cache.lookup_or_claim(kb, &out), Outcome::kHit);
    EXPECT_EQ(cache.lookup_or_claim("ky\t{\"trunc", &out), Outcome::kClaimed)
        << "the truncated record was dropped, not half-applied";
    cache.abandon("ky\t{\"trunc");
    // Startup compaction already rewrote the journal to the two survivors.
    const std::string text = read_file(path);
    EXPECT_EQ(text.find("garbage"), std::string::npos);
    EXPECT_EQ(text.find("trunc"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ResultCache, CompactionDropsTombstonesAndKeepsLruOrder) {
  const std::string path = "test_server_compact.journal";
  std::remove(path.c_str());
  ResultCache probe;
  probe.fulfill(ResultCache::key("a", "s", "pf", 1), tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;

  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  const std::string kc = ResultCache::key("c", "s", "pf", 3);
  const JobSummary a = tiny("a", 0.125, 1), c = tiny("c", 0.625, 3);
  {
    CacheOptions co;
    co.journal_path = path;
    co.max_bytes = 2 * one;
    ResultCache cache(co);
    cache.fulfill(ka, a);
    cache.fulfill(kb, tiny("b", 0.375, 2));
    JobSummary out;
    ASSERT_EQ(cache.lookup_or_claim(ka, &out), Outcome::kHit);  // refresh A
    cache.fulfill(kc, c);  // evicts B: a tombstone line in the live journal
    EXPECT_NE(read_file(path).find(kb + "\t\n"), std::string::npos)
        << "the live journal records the eviction as a tombstone";
  }
  // The clean-shutdown compaction rewrites exactly the survivors, oldest
  // first (so replay rebuilds the same recency order: C is the MRU head).
  const std::string expected =
      ka + "\t" + job_json(a) + "\n" + kc + "\t" + job_json(c) + "\n";
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ Service

TEST(Service, RepeatSubmissionIsBitwiseCachedWithZeroNewLpWork) {
  const ExperimentSpec spec = small_grid();
  const int n = static_cast<int>(Engine().expand(spec).size());
  ASSERT_EQ(n, 6);

  // Reference: a service that answers the grid ONCE.  Measured across
  // construction..destruction on this thread: the pool join flushes every
  // worker's thread-inclusive LP tallies, so the delta is exact.
  const solver::LpCounters before_once = solver::lp_counters();
  {
    ServiceOptions o;
    o.workers = 2;
    Service svc(o);
    const ExperimentSummary s = svc.run(spec);
    ASSERT_EQ(s.jobs.size(), static_cast<std::size_t>(n));
  }
  const long solves_once =
      solver::lp_counters().solves - before_once.solves;
  ASSERT_GT(solves_once, 0);

  // The submission under test answers the same grid TWICE.
  const solver::LpCounters before_twice = solver::lp_counters();
  std::vector<std::string> first_json(n), second_json(n);
  ServiceStats stats;
  {
    ServiceOptions o;
    o.workers = 2;
    Service svc(o);
    std::atomic<int> fresh{0}, cached{0};
    const ExperimentSummary s1 =
        svc.run(spec, [&](const JobSummary&, bool from_cache) {
          (from_cache ? cached : fresh).fetch_add(1);
        });
    for (int i = 0; i < n; ++i) first_json[i] = job_json(s1.jobs[i]);
    EXPECT_EQ(fresh.load(), n);
    EXPECT_EQ(cached.load(), 0);

    const ExperimentSummary s2 =
        svc.run(spec, [&](const JobSummary& j, bool from_cache) {
          EXPECT_TRUE(from_cache) << "job " << j.index;
        });
    for (int i = 0; i < n; ++i) second_json[i] = job_json(s2.jobs[i]);
    // Trends are re-mined from identical job digests: identical too.
    EXPECT_TRUE(scrub_wall(s1) == scrub_wall(s2));
    ASSERT_EQ(s1.trends.size(), s2.trends.size());

    stats = svc.stats();
  }
  const long solves_twice =
      solver::lp_counters().solves - before_twice.solves;

  // The replay is byte-for-byte what the first round emitted — including
  // the cached wall_seconds, which the cache preserves by design.
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(first_json[i], second_json[i]) << "job " << i;
  EXPECT_EQ(stats.cache_hits, n);
  EXPECT_EQ(stats.cache_misses, n);
  EXPECT_EQ(stats.cache_entries, static_cast<std::size_t>(n));
  EXPECT_EQ(stats.jobs_completed, 2 * n);
  EXPECT_EQ(stats.duplicate_deliveries, 0);
  // Each (case, scenario) instance was constructed once, not once per job
  // or per submission.
  EXPECT_EQ(stats.case_builds, n);
  // The acceptance criterion: the cached round added NOTHING to the LP
  // tally — running the grid twice cost exactly one grid of solves.
  EXPECT_EQ(solves_twice, solves_once);
}

TEST(Service, MatchesEngineBitwiseForAnyPoolSize) {
  ExperimentSpec spec = small_grid();
  spec.workers = 1;
  const ExperimentSummary reference = scrub_wall(Engine().run(spec).summary());
  ASSERT_GE(reference.jobs.size(), 6u);
  for (const JobSummary& j : reference.jobs)
    ASSERT_TRUE(j.ok) << j.case_name << "@" << j.scenario << ": " << j.error;

  for (const int pool : {1, 2, 4}) {
    ServiceOptions o;
    o.workers = pool;
    Service svc(o);
    EXPECT_EQ(svc.pool_size(), pool);
    // The spec's own workers field is the ENGINE's knob; the service pool
    // is fixed at construction and must not change job content either way.
    spec.workers = 7;
    const ExperimentSummary got = scrub_wall(svc.run(spec));
    ASSERT_EQ(got.jobs.size(), reference.jobs.size()) << "pool " << pool;
    for (std::size_t i = 0; i < reference.jobs.size(); ++i) {
      EXPECT_EQ(job_json(got.jobs[i]), job_json(reference.jobs[i]))
          << "pool " << pool << " job " << i;
    }
    EXPECT_TRUE(got == reference) << "pool " << pool;
    EXPECT_EQ(got.trends.size(), reference.trends.size());
    EXPECT_EQ(got.observations, reference.observations);
    EXPECT_EQ(got.lp.solves, reference.lp.solves);
    EXPECT_EQ(got.lp.iterations, reference.lp.iterations);
  }
}

TEST(Service, JobsRunInSubmitOrder) {
  // One worker, held in a gate job's callback until two further
  // submissions are queued behind it: it must then run every job of the
  // first before any of the second, each in grid order.  Unknown cases
  // fail at once, so the jobs cost nothing to run.
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const auto spec_of = [](const std::string& name) {
    ExperimentSpec spec;
    spec.cases = {name};
    spec.scenarios = {line(3), line(4), line(5), line(6)};
    return spec;
  };
  std::atomic<bool> queued{false};
  const std::uint64_t gate =
      svc.submit(spec_of("fifo_gate"), [&queued](const JobSummary&, bool) {
        while (!queued.load()) std::this_thread::yield();
      });
  ASSERT_NE(gate, Service::kRejected);

  util::Mutex mu;
  std::vector<std::string> order;  // guarded by mu
  const auto record = [&mu, &order](const JobSummary& j, bool) {
    util::MutexLock lock(&mu);
    order.push_back(j.case_name + "#" + std::to_string(j.index));
  };
  const std::uint64_t first = svc.submit(spec_of("fifo_first"), record);
  const std::uint64_t second = svc.submit(spec_of("fifo_second"), record);
  // Open the gate before any assertion can return: ~Service drains, and
  // would wait forever on a gate callback that is still spinning.
  queued.store(true);
  ASSERT_NE(first, Service::kRejected);
  ASSERT_NE(second, Service::kRejected);
  svc.wait(gate);
  svc.wait(first);
  svc.wait(second);

  std::vector<std::string> expected;
  for (const char* name : {"fifo_first", "fifo_second"})
    for (int i = 0; i < 4; ++i)
      expected.push_back(std::string(name) + "#" + std::to_string(i));
  util::MutexLock lock(&mu);
  EXPECT_EQ(order, expected);
}

TEST(Service, DrainUnderLoadLosesAndDuplicatesNothing) {
  ServiceOptions o;
  o.workers = 4;
  Service svc(o);

  // Three submissions with distinct experiment seeds: distinct content
  // (reseed_jobs salts every job from spec.seed), so the cache cannot
  // collapse the load away.  They are submitted from three threads at
  // once, so the queue sees concurrent producers.
  const int kSubs = 3;
  const int jobs_per_sub =
      static_cast<int>(Engine().expand(small_grid()).size());
  std::vector<std::uint64_t> ids(kSubs, Service::kRejected);
  // Per-slot delivery tallies.  Writes happen in the callback (serialized
  // under the submission's lock); the reads below happen only after
  // drain() returns, which orders after every delivery via the service
  // mutex — plain ints are TSan-clean here.
  std::vector<std::vector<int>> delivered(
      kSubs, std::vector<int>(jobs_per_sub, 0));
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubs; ++s) {
    submitters.emplace_back([&, s] {
      ExperimentSpec spec = small_grid();
      spec.seed = 1000 + s;
      auto& counts = delivered[s];
      while (!go.load()) std::this_thread::yield();
      ids[s] = svc.submit(spec, [&counts](const JobSummary& j, bool) {
        ++counts[j.index];
      });
    });
  }
  go.store(true);
  for (std::thread& t : submitters) t.join();
  for (int s = 0; s < kSubs; ++s) ASSERT_NE(ids[s], Service::kRejected);

  // Drain while the grids are in flight: it must block until every
  // accepted job is delivered, then reject new intake.
  svc.drain();
  ExperimentSpec late = small_grid();
  EXPECT_EQ(svc.submit(late), Service::kRejected);

  for (int s = 0; s < kSubs; ++s)
    for (int i = 0; i < jobs_per_sub; ++i)
      EXPECT_EQ(delivered[s][i], 1)
          << "submission " << s << " slot " << i;

  // wait() after drain still serves the finished submissions, complete
  // and in grid order.
  for (int s = 0; s < kSubs; ++s) {
    const ExperimentSummary sum = svc.wait(ids[s]);
    ASSERT_EQ(sum.jobs.size(), static_cast<std::size_t>(jobs_per_sub));
    for (int i = 0; i < jobs_per_sub; ++i) {
      EXPECT_EQ(sum.jobs[i].index, i);
      EXPECT_TRUE(sum.jobs[i].ok) << sum.jobs[i].error;
    }
  }

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_submitted, kSubs * jobs_per_sub);
  EXPECT_EQ(stats.jobs_completed, kSubs * jobs_per_sub);
  EXPECT_EQ(stats.jobs_failed, 0);
  EXPECT_EQ(stats.duplicate_deliveries, 0);
}

TEST(Service, UnknownCaseFailsLoudlyAndIsNeverCached) {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "no_such_case"};
  spec.scenarios = {line(3)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.tree_samples = 60;
  spec.options.subspace.significance.pairs = 30;
  spec.options.explain.samples = 40;

  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  const ExperimentSummary s1 = svc.run(spec);
  ASSERT_EQ(s1.jobs.size(), 2u);
  EXPECT_TRUE(s1.jobs[0].ok);
  EXPECT_FALSE(s1.jobs[1].ok);
  EXPECT_EQ(s1.jobs[1].error, "unknown case");  // Engine's exact wording

  // Resubmit: the ok job hits, the failed one is recomputed (failures are
  // not cached — a transient condition must not be sticky).
  const ExperimentSummary s2 = svc.run(spec);
  EXPECT_FALSE(s2.jobs[1].ok);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.jobs_failed, 2);
}

TEST(Service, ThrowingCaseBuildStrandsNoClaimant) {
  // A factory that throws exercises every unwind guard on the job path:
  // the case-memo claim (CaseMemo::acquire), the result-cache claim
  // (ClaimGuard), and the catch-all that still delivers the job.  The test
  // passing AT ALL is the headline assertion — before the guards, the
  // second submission of the same key blocked forever.
  registry().add("test_throwing_case",
                 CaseRegistry::Factory(
                     [](const scenario::ScenarioSpec*)
                         -> std::shared_ptr<HeuristicCase> {
                       throw std::runtime_error("injected case-build failure");
                     }));

  ExperimentSpec spec;
  spec.cases = {"test_throwing_case"};
  spec.scenarios = {line(3)};

  ServiceOptions o;
  o.workers = 4;
  Service svc(o);
  // Three concurrent submissions of the SAME key: the first claims and
  // throws; its abandon must hand the claim on (not strand the waiters),
  // and each inheritor throws in turn.
  const int kSubs = 3;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kSubs; ++i) {
    const std::uint64_t id = svc.submit(spec);
    ASSERT_NE(id, Service::kRejected);
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    const ExperimentSummary s = svc.wait(id);
    ASSERT_EQ(s.jobs.size(), 1u);
    EXPECT_FALSE(s.jobs[0].ok);
    EXPECT_EQ(s.jobs[0].error, "job threw: injected case-build failure");
  }
  // A late submission still completes: nothing is stuck in-flight and the
  // failure was never cached.
  const ExperimentSummary late = svc.run(spec);
  ASSERT_EQ(late.jobs.size(), 1u);
  EXPECT_FALSE(late.jobs[0].ok);
  EXPECT_EQ(late.jobs[0].error, "job threw: injected case-build failure");

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_failed, kSubs + 1);
  EXPECT_EQ(stats.cache_entries, 0u) << "failures are never cached";
}

TEST(Service, RestartReplaysTheJournaledWorkingSetWithZeroLpWork) {
  const std::string path = "test_server_service.journal";
  std::remove(path.c_str());
  const ExperimentSpec spec = small_grid();
  const int n = static_cast<int>(Engine().expand(spec).size());

  ServiceOptions o;
  o.workers = 2;
  o.cache_path = path;
  std::vector<std::string> first_json(n);
  {
    Service svc(o);
    const ExperimentSummary s = svc.run(spec);
    ASSERT_EQ(s.jobs.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) first_json[i] = job_json(s.jobs[i]);
  }  // clean shutdown compacts the journal

  // The restarted service must serve the whole prior working set from the
  // journal: bitwise identical, all from cache, ZERO new LP solves.
  const solver::LpCounters before = solver::lp_counters();
  {
    Service svc(o);
    EXPECT_EQ(svc.stats().cache_replayed, n);
    const ExperimentSummary s =
        svc.run(spec, [](const JobSummary& j, bool from_cache) {
          EXPECT_TRUE(from_cache) << "job " << j.index;
        });
    ASSERT_EQ(s.jobs.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(job_json(s.jobs[i]), first_json[i]) << "job " << i;
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cache_hits, n);
    EXPECT_EQ(stats.cache_misses, 0);
  }
  EXPECT_EQ(solver::lp_counters().solves - before.solves, 0);
  std::remove(path.c_str());
}

TEST(Service, ShutdownIsIdempotentAndTerminal) {
  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  EXPECT_TRUE(svc.wait(42).jobs.empty()) << "unknown handle: empty summary";
  svc.shutdown();
  svc.shutdown();  // second call is a no-op
  ExperimentSpec spec = small_grid();
  EXPECT_EQ(svc.submit(spec), Service::kRejected);
  EXPECT_TRUE(svc.run(spec).jobs.empty());
  // The destructor's shutdown() is then also a no-op.
}

namespace {

// Runs `input` through the xplaind request loop in process and returns the
// events it wrote, parsed.
std::vector<util::Json> serve_lines(Service& svc, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  server::serve(svc, in, out);
  std::vector<util::Json> events;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    auto e = util::Json::parse(line);
    EXPECT_TRUE(e.has_value()) << line;
    if (e) events.push_back(std::move(*e));
  }
  return events;
}

std::string event_kind(const util::Json& e) {
  const util::Json* kind = e.find("event");
  return kind ? kind->as_str() : std::string();
}

}  // namespace

TEST(Service, ProtocolRejectsOutOfRangeIntegersBeforeEnqueueing) {
  // "samples":1e300 once ran (cast to INT_MIN) and was cached as ok, and a
  // negative seed was a float-to-unsigned cast: both are now an error event
  // naming the field, and nothing is enqueued or cached.
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const std::string spec_head =
      R"({"op":"submit","id":1,"spec":{"cases":["first_fit"],)"
      R"("scenarios":[{"kind":"line","size":3}],)";
  const auto events = serve_lines(
      svc, spec_head + R"("options":{"explain":{"samples":1e300}}}})" "\n" +
               spec_head + R"("seed":-1}})" "\n" + spec_head +
               R"("options":{"subspace":{"max_subspaces":2.5}}}})" "\n"
               R"({"op":"stats"})" "\n");
  ASSERT_EQ(events.size(), 4u);
  const char* fields[] = {"samples", "seed", "max_subspaces"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(event_kind(events[i]), "error");
    const util::Json* msg = events[i].find("message");
    ASSERT_NE(msg, nullptr);
    EXPECT_NE(msg->as_str().find(std::string("\"") + fields[i] + "\""),
              std::string::npos)
        << msg->as_str();
  }
  EXPECT_EQ(event_kind(events[3]), "stats");
  EXPECT_EQ(events[3].find("jobs_submitted")->as_str(), "0");
  EXPECT_EQ(events[3].find("cache_entries")->as_str(), "0");
}

TEST(Service, ProtocolRejectsUnbuildableScenariosBeforeEnqueueing) {
  // A negative fat-tree arity, a zero-node line and negative failure /
  // capacity fields all once ran and were cached as ok; each is now one
  // error event naming the field, and nothing is enqueued or cached.
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const auto submit = [](const char* cases, const char* scenario) {
    return std::string(R"({"op":"submit","id":1,"spec":{"cases":[")") +
           cases + R"("],"scenarios":[)" + scenario + "]}}\n";
  };
  const auto events = serve_lines(
      svc, submit("wcmp", R"({"kind":"fat_tree","size":-4})") +
               submit("first_fit", R"({"kind":"line","size":0})") +
               submit("wcmp", R"({"kind":"line","size":4,"failed_links":-3,)"
                              R"("capacity":-50})") +
               R"({"op":"stats"})" "\n");
  ASSERT_EQ(events.size(), 4u);
  const char* fields[] = {"size", "size", "failed_links"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(event_kind(events[i]), "error");
    const util::Json* msg = events[i].find("message");
    ASSERT_NE(msg, nullptr);
    EXPECT_NE(msg->as_str().find(std::string("\"") + fields[i] + "\""),
              std::string::npos)
        << msg->as_str();
  }
  EXPECT_EQ(event_kind(events[3]), "stats");
  EXPECT_EQ(events[3].find("jobs_submitted")->as_str(), "0");
  EXPECT_EQ(events[3].find("cache_entries")->as_str(), "0");
}

namespace {

/// A submit line whose grid crosses `cases` copies of `case_name` with
/// `scenarios` default scenarios and `variants` default option variants.
std::string grid_submit(const char* case_name, int cases, int scenarios,
                        int variants) {
  const auto list = [](int n, const std::string& item) {
    std::string out = "[";
    for (int i = 0; i < n; ++i) out += (i ? "," : "") + item;
    return out + "]";
  };
  return R"({"op":"submit","id":1,"spec":{"cases":)" +
         list(cases, std::string("\"") + case_name + "\"") +
         R"(,"scenarios":)" + list(scenarios, "{}") +
         R"(,"option_variants":)" + list(variants, "{}") + "}}\n";
}

}  // namespace

TEST(Service, ProtocolRejectsOversizedGridsBeforeExpanding) {
  // 20000^3 = 8e12 jobs: expanding that grid once asked for more than 2^47
  // bytes and aborted xplaind with std::bad_alloc.  It is now counted, not
  // built, and answered with one error event; so is a grid one job over
  // the limit (17 x 241 = 4097).
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const std::string huge = grid_submit("a", 20000, 20000, 20000);
  ASSERT_LE(huge.size(), server::kMaxRequestBytes);
  const auto events = serve_lines(
      svc, huge + grid_submit("a", 17, 241, 1) + R"({"op":"stats"})" "\n");
  ASSERT_EQ(events.size(), 3u);
  const char* counts[] = {"8000000000000", "4097"};
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(event_kind(events[i]), "error");
    const std::string msg = events[i].find("message")->as_str();
    EXPECT_NE(msg.find(counts[i]), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(server::kMaxGridJobs)),
              std::string::npos)
        << msg;
  }
  EXPECT_EQ(event_kind(events[2]), "stats");
  EXPECT_EQ(events[2].find("submissions")->as_str(), "0");
  EXPECT_EQ(events[2].find("jobs_submitted")->as_str(), "0");
  EXPECT_EQ(events[2].find("cache_entries")->as_str(), "0");
}

TEST(Service, ProtocolAcceptsAGridOfExactlyTheLimit) {
  // 1 unknown case x 64 scenarios x 64 variants = kMaxGridJobs jobs, each
  // failing at once without building anything.
  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  const auto events =
      serve_lines(svc, grid_submit("no_such_case", 1, 64, 64) +
                           R"({"op":"stats"})" "\n");
  ASSERT_EQ(events.size(), server::kMaxGridJobs + 3);
  EXPECT_EQ(event_kind(events.front()), "accepted");
  EXPECT_EQ(events.front().find("jobs")->as_num(), 4096.0);
  for (std::size_t i = 1; i <= server::kMaxGridJobs; ++i)
    ASSERT_EQ(event_kind(events[i]), "job") << i;
  EXPECT_EQ(event_kind(events[server::kMaxGridJobs + 1]), "done");
  const util::Json& stats = events.back();
  EXPECT_EQ(event_kind(stats), "stats");
  EXPECT_EQ(stats.find("jobs_submitted")->as_str(), "4096");
  EXPECT_EQ(stats.find("jobs_failed")->as_str(), "4096");
  EXPECT_EQ(stats.find("cache_entries")->as_str(), "0");
}

TEST(Service, ProtocolDiscardsOverlongLineThenServesStats) {
  // A 2 MiB line is dropped as it streams in and answered with one error
  // event; the next request is served normally.
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const auto events = serve_lines(
      svc, std::string(2 * server::kMaxRequestBytes, ' ') + "\n" +
               R"({"op":"stats"})" "\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(event_kind(events[0]), "error");
  EXPECT_EQ(event_kind(events[1]), "stats");
  // A line of exactly the limit is still read whole (here: malformed JSON,
  // so a parse error — not the size error).
  const auto at_limit = serve_lines(
      svc, std::string(server::kMaxRequestBytes, 'x') + "\n");
  ASSERT_EQ(at_limit.size(), 1u);
  EXPECT_NE(at_limit[0].find("message")->as_str().find("malformed"),
            std::string::npos);
}

TEST(Service, ProtocolAnswersHostileNestingThenServesStats) {
  // The xplaind request loop, in process: a line nested far past the JSON
  // parser's bound gets an error event (not a stack overflow), and the
  // loop keeps serving.
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  std::istringstream in(std::string(200000, '[') + "\n{\"op\":\"stats\"}\n");
  std::ostringstream out;
  server::serve(svc, in, out);

  std::istringstream events(out.str());
  std::vector<std::string> kinds;
  for (std::string line; std::getline(events, line);) {
    const auto e = util::Json::parse(line);
    ASSERT_TRUE(e.has_value()) << line;
    const util::Json* kind = e->find("event");
    ASSERT_NE(kind, nullptr) << line;
    kinds.push_back(kind->as_str());
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"error", "stats"}));
}
