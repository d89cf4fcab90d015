// xplain::server::Service — the resident explanation service's front door.
//
// The paper's pipeline explains one study per process; the ROADMAP
// north-star serves a query STREAM.  Service keeps Engine's job path
// resident: submit() expands an ExperimentSpec grid into jobs (the same
// Engine::expand order) and appends one (submission, index) descriptor per
// job to a FIFO deque; the service's own resident threads pop one job at a
// time and run it through run_grid_job (engine/grid_job.h), the very path
// Engine::run takes — so every job's content is the same pure function of
// (spec, index), bitwise identical for any pool size and unaffected by
// concurrent unrelated jobs (the thread-inclusive solver::lp_counters keep
// each job's LP tallies exact).  A job costs from a fraction of a
// millisecond (cache hit) to tens of milliseconds (miss), so one lock per
// job is all the scheduling it needs.
//
// Results dedup through the content-addressed ResultCache: a job whose
// (case, scenario.cache_key(), options fingerprint, seed) was already
// computed is served from memory — bitwise identical JSON, zero LP work —
// and concurrent duplicates collapse to one computation (the second
// submitter waits).
//
// Streaming: an optional per-submission callback fires as each job
// finishes (serialized per submission; completion ORDER depends on
// scheduling, job CONTENT does not).  The callback receives the
// JobSummary — the serializable digest — rather than the full JobResult:
// a cache hit has no PipelineResult to resurrect, and the summary is
// exactly what the service can promise to reproduce bit for bit.  Do not
// call back into the Service from the callback (it runs under the
// submission's lock).
//
// Lifecycle: drain() stops intake and blocks until every accepted job has
// finished (workers stay up); shutdown() drains, stops the workers, and
// joins them.  The destructor shuts down.  Submissions after drain are
// rejected (submit returns kRejected).
//
// LP accounting caveat (solver/lp.h): the workers are hand-rolled threads,
// so their thread-local solver tallies reach the process-wide retired
// totals only when they EXIT (shutdown's join).  Per-job deltas measured
// inside a job are still exact; process-level deltas across a service are
// exact only after shutdown.
//
// Hardening: the shared job path turns a throwing case build or pipeline
// into a failed job that is still delivered, and every cache claim is held
// in a RAII ClaimGuard, so any unwind on the job path (serialization
// included) abandons the claim — no claimant ever blocks forever on a
// stranded key.
// ServiceOptions::cache_max_bytes bounds resident cache memory (LRU by
// bytes) and cache_path persists it across restarts; see
// server/result_cache.h for the policy details.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/grid_job.h"
#include "server/result_cache.h"
#include "util/thread_annotations.h"
#include "util/timer.h"
#include "xplain/case.h"

namespace xplain::server {

struct ServiceOptions {
  /// Worker threads; <= 0 resolves via util::resolve_workers (one per
  /// hardware thread unless XPLAIN_WORKERS overrides).
  int workers = 0;
  /// Result-cache high-water mark in summed JSON bytes; fulfills past it
  /// evict least-recently-served entries.  0 = unbounded (the pre-eviction
  /// behavior).
  std::size_t cache_max_bytes = 0;
  /// Result-cache journal replayed at startup and compacted on shutdown;
  /// "" = in-memory only.  A restarted service serves the prior working
  /// set byte-for-byte from this file with zero new LP solves.
  std::string cache_path;
};

struct ServiceStats {
  long submissions = 0;
  long jobs_submitted = 0;
  long jobs_completed = 0;
  long jobs_failed = 0;  // completed with ok = false (subset of completed)
  /// A slot delivered twice would indicate a scheduling bug; the drain
  /// test asserts this stays 0.
  long duplicate_deliveries = 0;
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_inflight_waits = 0;
  /// Submissions answered with an immediate failure because the key was
  /// repeatedly abandoned (ResultCache::kFailFastAfter times in a row).
  long cache_fast_fails = 0;
  /// Ready entries evicted by the cache_max_bytes LRU policy.
  long cache_evictions = 0;
  /// Ready entries replayed from cache_path at startup.
  long cache_replayed = 0;
  std::size_t cache_entries = 0;
  /// Summed JSON bytes of the resident ready entries (the quantity
  /// cache_max_bytes bounds).
  std::size_t cache_bytes = 0;
  /// Scenario instances this service constructed (once per unique
  /// (case, scenario.cache_key()) across its lifetime — the resident
  /// analogue of ExperimentResult::case_builds).
  long case_builds = 0;
};

class Service {
 public:
  /// Fires per finished job, serialized per submission.  `from_cache` is
  /// true when the summary was served without running the pipeline.
  using JobCallback = std::function<void(const JobSummary&, bool from_cache)>;

  explicit Service(const ServiceOptions& opts = {},
                   CaseRegistry& reg = registry());
  ~Service();  // shutdown()

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// submit() result when the service is draining / shut down.
  static constexpr std::uint64_t kRejected = 0;

  /// Enqueues the spec's full grid; returns a handle for wait(), or
  /// kRejected after drain()/shutdown().  Never blocks on the jobs
  /// themselves.  The spec's `workers` field is ignored (the pool is the
  /// service's); everything else — including reseed_jobs, run_generalizer,
  /// grammar — behaves exactly as in Engine::run.  `on_accepted` runs once
  /// if the submission is accepted (never on kRejected), under the accept
  /// lock and before any of its jobs can start, so what it writes precedes
  /// every on_job call of the submission; it must not call back into the
  /// service.
  std::uint64_t submit(const ExperimentSpec& spec, JobCallback on_job = {},
                       const std::function<void()>& on_accepted = {})
      XPLAIN_EXCLUDES(mu_);

  /// Blocks until every job of `id` finished; returns the submission's
  /// summary (jobs in grid order, trends mined like Engine::run does, lp
  /// the sum of the jobs' lp — also like Engine::run; a cache hit counts
  /// the LP work of the run that produced it) and releases the handle.  A
  /// second wait on the same id returns an empty summary.
  ExperimentSummary wait(std::uint64_t id) XPLAIN_EXCLUDES(mu_);

  /// submit + wait.
  ExperimentSummary run(const ExperimentSpec& spec, JobCallback on_job = {});

  /// Stops intake and blocks until all accepted jobs finished.  Workers
  /// stay resident (more submissions are still rejected).
  void drain() XPLAIN_EXCLUDES(mu_);

  /// drain() + stop and join the workers.  Idempotent.
  void shutdown() XPLAIN_EXCLUDES(mu_);

  ServiceStats stats() const XPLAIN_EXCLUDES(mu_);

  int pool_size() const { return pool_size_; }

 private:
  struct Submission {
    // Immutable after submit() registers the entry.
    std::uint64_t id = 0;
    ExperimentSpec spec;
    std::vector<ExperimentJob> jobs;
    JobCallback on_job;
    util::Timer timer;

    util::Mutex mu;
    std::condition_variable_any done_cv;
    std::vector<JobSummary> results XPLAIN_GUARDED_BY(mu);
    std::vector<char> delivered XPLAIN_GUARDED_BY(mu);
    int remaining XPLAIN_GUARDED_BY(mu) = 0;
    double wall_seconds XPLAIN_GUARDED_BY(mu) = 0.0;
  };

  /// One unit of queued work: which submission, which cell of its grid.
  struct QueuedJob {
    std::uint64_t submission = 0;
    int index = 0;
  };

  /// A resident worker: pops jobs in FIFO order until shutdown() stops it
  /// and the queue is empty.
  void work() XPLAIN_EXCLUDES(mu_);
  void run_job(const QueuedJob& q) XPLAIN_EXCLUDES(mu_);
  void deliver(Submission& sub, int index, const JobSummary& s,
               bool from_cache) XPLAIN_EXCLUDES(mu_);

  const int pool_size_;
  ResultCache cache_;
  /// Unplanned, hence resident: each (case, scenario) instance is built
  /// once per service lifetime and never evicted.
  CaseMemo cases_;

  mutable util::Mutex mu_;
  /// condition_variable_any: the std:: condvar only accepts a raw
  /// std::mutex, which xplain_lint bans (invisible to -Wthread-safety);
  /// util::Mutex is BasicLockable, which the _any variant works with.
  std::condition_variable_any idle_cv_;  // pending_jobs_ hit 0
  std::condition_variable_any work_cv_;  // queue_ grew, or stopping_ set
  std::deque<QueuedJob> queue_ XPLAIN_GUARDED_BY(mu_);
  bool accepting_ XPLAIN_GUARDED_BY(mu_) = true;
  bool stopping_ XPLAIN_GUARDED_BY(mu_) = false;
  std::uint64_t next_id_ XPLAIN_GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, std::shared_ptr<Submission>> submissions_
      XPLAIN_GUARDED_BY(mu_);
  long pending_jobs_ XPLAIN_GUARDED_BY(mu_) = 0;
  long submissions_total_ XPLAIN_GUARDED_BY(mu_) = 0;
  long jobs_submitted_ XPLAIN_GUARDED_BY(mu_) = 0;
  long jobs_completed_ XPLAIN_GUARDED_BY(mu_) = 0;
  long jobs_failed_ XPLAIN_GUARDED_BY(mu_) = 0;
  long duplicate_deliveries_ XPLAIN_GUARDED_BY(mu_) = 0;
  /// Started last in the constructor (every member above is ready by the
  /// time a worker runs); joined once, by shutdown().  Only the thread
  /// that constructs and shuts down the service touches this vector.
  std::vector<std::thread> workers_;
};

}  // namespace xplain::server
