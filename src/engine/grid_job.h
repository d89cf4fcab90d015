// The job path every grid executor shares.
//
// Engine::run (one-shot, slot-deterministic) and server::Service (resident,
// result-cached) both run ExperimentSpec grids job by job.  What a job
// does is defined here, once, so the two executors cannot drift:
//
//   * CaseMemo — one registry.create per unique (case,
//     scenario.cache_key()), shared by every job that names that cell, with
//     in-flight dedup (a second requester waits for the build instead of
//     repeating it) and release-on-throw (a factory that throws hands the
//     build on to the next requester instead of stranding it).  Engine
//     plans its run so each instance is dropped when the last job using it
//     retires; Service keeps an unplanned, resident memo.
//   * make_grid_job / run_grid_job — one job from (spec, job): derived
//     options, fingerprint, the explain-worker clamp, case lookup and
//     run_pipeline.  Any exception fails that job (ok = false, "job threw:
//     ...") instead of escaping into the executor, so one bad cell never
//     discards the rest of a grid.
//   * generalize_jobs — the slim generalize_batch input built from job
//     summaries, so both executors mine identical Type-3 trends.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "util/thread_annotations.h"

namespace xplain {

class CaseMemo {
 public:
  explicit CaseMemo(CaseRegistry& reg) : registry_(&reg) {}

  CaseMemo(const CaseMemo&) = delete;
  CaseMemo& operator=(const CaseMemo&) = delete;

  /// Bounds memory to the jobs ahead: each scenario cell's instance is
  /// dropped once every one of `jobs` that uses it has retired.  Cells no
  /// plan covers stay resident (never evicted).
  void plan(const std::vector<ExperimentJob>& jobs) XPLAIN_EXCLUDES(mu_);

  /// The job's case: the registry's default instance for a default job,
  /// else the memoized scenario build.  nullptr when the name is unknown or
  /// the case is default-only (cached too: unknown stays unknown).
  /// Rethrows what the factory throws, after releasing the in-flight claim
  /// so a waiter inherits the build.
  std::shared_ptr<const HeuristicCase> acquire(const ExperimentJob& job)
      XPLAIN_EXCLUDES(mu_);

  /// Ends one planned use of the job's cell; the last one drops the
  /// instance.  A no-op for default jobs and unplanned cells.
  void retire(const ExperimentJob& job) XPLAIN_EXCLUDES(mu_);

  /// Scenario builds started so far (a build that threw counts too).
  long builds() const XPLAIN_EXCLUDES(mu_);

  CaseRegistry& registry() const { return *registry_; }

 private:
  using Key = std::pair<std::string, std::string>;  // (case, cache_key)
  struct Entry {
    bool ready = false;
    std::shared_ptr<const HeuristicCase> c;
  };

  CaseRegistry* registry_;
  mutable util::Mutex mu_;
  std::condition_variable_any ready_cv_;
  std::map<Key, Entry> entries_ XPLAIN_GUARDED_BY(mu_);
  std::map<Key, int> uses_left_ XPLAIN_GUARDED_BY(mu_);
  long builds_ XPLAIN_GUARDED_BY(mu_) = 0;
};

/// One grid job before it runs: `result` already carries the job, its seed
/// and its options fingerprint — the content address the server's result
/// cache keys on — and `options` are the pipeline options it runs with.
struct GridJob {
  JobResult result;
  PipelineOptions options;
};

/// A pure function of (spec, job.index), like derived_job_options.
GridJob make_grid_job(const ExperimentSpec& spec, const ExperimentJob& job);

/// Runs the job on its case from `cases` and retires it there.
/// `concurrent` means other jobs run alongside: an "auto" explain pool
/// (explain.workers <= 0) is then clamped to one worker, since a pool in
/// every concurrent pipeline would oversubscribe the machine; an explicit
/// count is respected.  Never throws: a failure is ok = false with an
/// error.
JobResult run_grid_job(GridJob g, CaseMemo& cases, bool concurrent);

/// Type-3 trends over the ok jobs.  generalize_batch reads only features,
/// best gap and gap scale, so each job enters as exactly those (the best
/// gap is max(best_gap_found, max_seed_gap), as generalize_batch would take
/// it from a full PipelineResult).
generalize::GeneralizerResult generalize_jobs(
    const std::vector<JobSummary>& jobs, const ExperimentSpec& spec);

}  // namespace xplain
