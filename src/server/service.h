// xplain::server::Service — the resident explanation service's front door.
//
// The paper's pipeline explains one study per process; the ROADMAP
// north-star serves a query STREAM.  Service keeps Engine's job path
// resident: submit() expands an ExperimentSpec grid into jobs (the same
// Engine::expand order), enqueues them on the bounded JobQueue, and a
// persistent WorkerPool runs each through run_grid_job (engine/grid_job.h),
// the very path Engine::run takes — so every job's content is the same
// pure function of (spec, index), bitwise identical for any pool size and
// unaffected by concurrent unrelated jobs (the thread-inclusive
// solver::lp_counters keep each job's LP tallies exact).
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
// finished (workers stay up); shutdown() drains, closes the queue, and
// joins the pool.  The destructor shuts down.  Submissions after drain are
// rejected (submit returns kRejected).
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
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/grid_job.h"
#include "server/job_queue.h"
#include "server/result_cache.h"
#include "server/worker_pool.h"
#include "util/thread_annotations.h"
#include "util/timer.h"
#include "xplain/case.h"

namespace xplain::server {

struct ServiceOptions {
  /// Worker threads; <= 0 resolves via util::resolve_workers (one per
  /// hardware thread unless XPLAIN_WORKERS overrides).
  int workers = 0;
  /// Job-queue bound (backpressure: submit blocks when full).
  std::size_t queue_capacity = 256;
  /// Jobs per rxloop batch dequeue.
  std::size_t batch_size = 4;
  /// Result-cache high-water mark in summed JSON bytes; fulfills past it
  /// evict least-recently-served entries.  0 = unbounded (the pre-eviction
  /// behavior).
  std::size_t cache_max_bytes = 0;
  /// Result-cache journal replayed at startup and compacted on shutdown;
  /// "" = in-memory only.  A restarted service serves the prior working
  /// set byte-for-byte from this file with zero new LP solves.
  std::string cache_path;
  /// Consecutive failures of one cache key before other submitters
  /// fast-fail instead of queuing behind the re-prober; 0 disables.
  int cache_fail_fast_after = 3;
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
  /// repeatedly abandoned (ServiceOptions::cache_fail_fast_after).
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
  /// kRejected after drain()/shutdown().  Blocks only for queue
  /// backpressure.  The spec's `workers` field is ignored (the pool is the
  /// service's); everything else — including reseed_jobs, run_generalizer,
  /// grammar — behaves exactly as in Engine::run.
  std::uint64_t submit(const ExperimentSpec& spec, JobCallback on_job = {})
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

  /// drain() + close the queue + join the pool.  Idempotent.
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

  void run_job(const QueuedJob& q, int worker);
  void deliver(Submission& sub, int index, const JobSummary& s,
               bool from_cache) XPLAIN_EXCLUDES(mu_);

  const int pool_size_;
  JobQueue queue_;
  ResultCache cache_;
  /// Unplanned, hence resident: each (case, scenario) instance is built
  /// once per service lifetime and never evicted.
  CaseMemo cases_;
  std::unique_ptr<WorkerPool> pool_;  // constructed last, joined first

  mutable util::Mutex mu_;
  std::condition_variable_any idle_cv_;  // pending_jobs_ hit 0
  bool accepting_ XPLAIN_GUARDED_BY(mu_) = true;
  std::uint64_t next_id_ XPLAIN_GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, std::shared_ptr<Submission>> submissions_
      XPLAIN_GUARDED_BY(mu_);
  long pending_jobs_ XPLAIN_GUARDED_BY(mu_) = 0;
  long submissions_total_ XPLAIN_GUARDED_BY(mu_) = 0;
  long jobs_submitted_ XPLAIN_GUARDED_BY(mu_) = 0;
  long jobs_completed_ XPLAIN_GUARDED_BY(mu_) = 0;
  long jobs_failed_ XPLAIN_GUARDED_BY(mu_) = 0;
  long duplicate_deliveries_ XPLAIN_GUARDED_BY(mu_) = 0;
};

}  // namespace xplain::server
