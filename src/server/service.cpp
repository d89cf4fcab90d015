#include "server/service.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/parallel.h"

namespace xplain::server {

namespace {

CacheOptions cache_options(const ServiceOptions& o) {
  CacheOptions c;
  c.max_bytes = o.cache_max_bytes;
  c.journal_path = o.cache_path;
  return c;
}

}  // namespace

Service::Service(const ServiceOptions& opts, CaseRegistry& reg)
    : pool_size_(std::max(1, util::resolve_workers(opts.workers))),
      cache_(cache_options(opts)),
      cases_(reg) {
  // The workers start last: by the time one can run, every other member is
  // constructed.
  workers_.reserve(pool_size_);
  try {
    for (int w = 0; w < pool_size_; ++w)
      workers_.emplace_back([this] { work(); });
  } catch (...) {
    shutdown();  // joins the threads that did start before members die
    throw;
  }
  XPLAIN_INFO << "service: " << pool_size_ << " resident workers";
}

Service::~Service() { shutdown(); }

std::uint64_t Service::submit(const ExperimentSpec& spec, JobCallback on_job,
                              const std::function<void()>& on_accepted) {
  auto sub = std::make_shared<Submission>();
  sub->spec = spec;
  sub->jobs = Engine(cases_.registry()).expand(spec);
  sub->on_job = std::move(on_job);
  const int n = static_cast<int>(sub->jobs.size());
  {
    util::MutexLock lock(&sub->mu);
    sub->results.resize(n);
    sub->delivered.assign(n, 0);
    sub->remaining = n;
  }
  {
    util::MutexLock lock(&mu_);
    if (!accepting_) return kRejected;
    if (on_accepted) on_accepted();
    sub->id = next_id_++;
    submissions_[sub->id] = sub;
    // Enqueued and counted under the same lock as the accept check: once
    // drain() sees accepting_ == false, every accepted job is already in
    // queue_ and pending_jobs_.
    for (int i = 0; i < n; ++i) queue_.push_back({sub->id, i});
    pending_jobs_ += n;
    ++submissions_total_;
    jobs_submitted_ += n;
  }
  work_cv_.notify_all();
  return sub->id;
}

ExperimentSummary Service::wait(std::uint64_t id) {
  std::shared_ptr<Submission> sub;
  {
    util::MutexLock lock(&mu_);
    auto it = submissions_.find(id);
    if (it == submissions_.end()) return {};
    sub = it->second;
  }
  ExperimentSummary out;
  sub->mu.lock();
  while (sub->remaining > 0) sub->done_cv.wait(sub->mu);
  out.jobs = sub->results;
  out.wall_seconds = sub->wall_seconds;
  sub->mu.unlock();
  {
    util::MutexLock lock(&mu_);
    submissions_.erase(id);
  }
  // Thread-inclusive per-job LP tallies sum to the submission's exact total
  // (each job's delta was measured on the worker that ran it) — the same
  // derivation Engine::run uses.
  for (const JobSummary& j : out.jobs) out.lp += j.lp;
  if (sub->spec.run_generalizer) {
    // The same trend mining Engine::run does, from the same summaries.
    const generalize::GeneralizerResult g =
        generalize_jobs(out.jobs, sub->spec);
    out.trends = make_trend_summaries(g);
    out.observations = static_cast<int>(g.observations.size());
  }
  return out;
}

ExperimentSummary Service::run(const ExperimentSpec& spec,
                               JobCallback on_job) {
  const std::uint64_t id = submit(spec, std::move(on_job));
  if (id == kRejected) return {};
  return wait(id);
}

void Service::drain() {
  mu_.lock();
  accepting_ = false;
  while (pending_jobs_ > 0) idle_cv_.wait(mu_);
  mu_.unlock();
}

void Service::shutdown() {
  // Sequentially idempotent: drain re-checks pending (0), the join loop
  // finds no threads the second time, compaction rewrites an
  // already-compact journal in place.
  drain();
  {
    util::MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // With every worker joined the cache is quiescent: rewrite the journal
  // to exactly the resident entries (drops tombstones and superseded
  // lines) so the next startup replays a minimal file.
  cache_.compact();
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    util::MutexLock lock(&mu_);
    s.submissions = submissions_total_;
    s.jobs_submitted = jobs_submitted_;
    s.jobs_completed = jobs_completed_;
    s.jobs_failed = jobs_failed_;
    s.duplicate_deliveries = duplicate_deliveries_;
  }
  s.case_builds = cases_.builds();
  const ResultCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_inflight_waits = cs.inflight_waits;
  s.cache_fast_fails = cs.fast_fails;
  s.cache_evictions = cs.evictions;
  s.cache_replayed = cs.replayed;
  s.cache_entries = cs.entries;
  s.cache_bytes = cs.bytes;
  return s;
}

void Service::work() {
  for (;;) {
    mu_.lock();
    while (queue_.empty() && !stopping_) work_cv_.wait(mu_);
    if (queue_.empty()) {  // stopping_, and nothing left to run
      mu_.unlock();
      return;
    }
    const QueuedJob q = queue_.front();
    queue_.pop_front();
    mu_.unlock();
    run_job(q);
  }
}

void Service::run_job(const QueuedJob& q) {
  std::shared_ptr<Submission> sub;
  {
    util::MutexLock lock(&mu_);
    auto it = submissions_.find(q.submission);
    if (it == submissions_.end()) return;  // defensive; wait() erases only
    sub = it->second;                      // after the last delivery
  }
  // The identical pure derivation Engine::run uses: content depends on
  // (spec, index) only, never on which worker runs it or when.
  GridJob g = make_grid_job(sub->spec, sub->jobs[q.index]);
  const ExperimentJob& job = g.result.job;
  const std::string key = ResultCache::key(
      job.case_name, job.scenario ? job.scenario->cache_key() : std::string(),
      g.result.options_fingerprint, g.result.seed);

  JobSummary s;
  const ResultCache::Outcome lookup = cache_.lookup_or_claim(key, &s);
  if (lookup == ResultCache::Outcome::kHit) {
    // Grid position is submission-local, not content — everything else in
    // the cached summary is identical by the key's construction.
    s.index = q.index;
    deliver(*sub, q.index, s, /*from_cache=*/true);
    return;
  }
  if (lookup == ResultCache::Outcome::kFastFail) {
    // Poisoned-key back-off: the same key keeps getting abandoned and one
    // prober is already retrying it — fail this submission immediately
    // instead of joining a convoy behind a job that keeps dying.
    g.result.error =
        "job fast-failed: this key was repeatedly abandoned and is being "
        "re-probed (resubmit later)";
    deliver(*sub, q.index, make_job_summary(g.result), /*from_cache=*/false);
    return;
  }
  // kClaimed: from here until the claim is resolved, ANY unwind — a
  // throwing summary serialization included — must abandon, or every
  // future claimant of the key blocks forever.
  ClaimGuard claim(&cache_, key);
  s = make_job_summary(
      run_grid_job(std::move(g), cases_, /*concurrent=*/pool_size_ > 1));
  if (s.ok) {
    claim.fulfill(s);
  } else {
    claim.abandon();  // failures are not cached
  }
  deliver(*sub, q.index, s, /*from_cache=*/false);
}

void Service::deliver(Submission& sub, int index, const JobSummary& s,
                      bool from_cache) {
  bool dup = false;
  bool done = false;
  {
    util::MutexLock lock(&sub.mu);
    if (sub.delivered[index]) {
      dup = true;
    } else {
      sub.delivered[index] = 1;
      sub.results[index] = s;
      --sub.remaining;
      if (sub.on_job) sub.on_job(s, from_cache);
      if (sub.remaining == 0) {
        sub.wall_seconds = sub.timer.seconds();
        done = true;
      }
    }
  }
  {
    util::MutexLock lock(&mu_);
    if (dup) {
      ++duplicate_deliveries_;
    } else {
      ++jobs_completed_;
      if (!s.ok) ++jobs_failed_;
      if (--pending_jobs_ == 0) idle_cv_.notify_all();
    }
  }
  // Wake the waiter last, so a wait() that returns sees the service
  // counters already covering this delivery.
  if (done) sub.done_cv.notify_all();
}

}  // namespace xplain::server
