#include "engine/grid_job.h"

#include <algorithm>
#include <exception>

namespace xplain {

namespace {

std::pair<std::string, std::string> cell_key(const ExperimentJob& job) {
  return {job.case_name, job.scenario->cache_key()};
}

}  // namespace

void CaseMemo::plan(const std::vector<ExperimentJob>& jobs) {
  util::MutexLock lock(&mu_);
  for (const ExperimentJob& job : jobs)
    if (job.scenario) ++uses_left_[cell_key(job)];
}

std::shared_ptr<const HeuristicCase> CaseMemo::acquire(
    const ExperimentJob& job) {
  if (!job.scenario) return registry_->find(job.case_name);
  const Key k = cell_key(job);
  mu_.lock();
  for (;;) {
    auto it = entries_.find(k);
    if (it == entries_.end()) break;
    if (it->second.ready) {
      std::shared_ptr<const HeuristicCase> c = it->second.c;
      mu_.unlock();
      return c;
    }
    ready_cv_.wait(mu_);
  }
  // Claim, then build outside the lock: builds can be expensive and other
  // jobs may need DIFFERENT cells meanwhile.  Built fresh (create, not the
  // registry's keyed cache, which would retain every cell for the process
  // lifetime).
  entries_.emplace(k, Entry{});
  ++builds_;
  mu_.unlock();
  std::shared_ptr<const HeuristicCase> c;
  try {
    c = registry_->create(job.case_name, *job.scenario);
  } catch (...) {
    // Release the claim: the first waiter re-finds nothing, inherits the
    // build and retries it (its own job fails the same way if the factory
    // keeps throwing).
    {
      util::MutexLock lock(&mu_);
      entries_.erase(k);
    }
    ready_cv_.notify_all();
    throw;
  }
  {
    util::MutexLock lock(&mu_);
    Entry& e = entries_[k];
    e.ready = true;
    e.c = c;
  }
  ready_cv_.notify_all();
  return c;
}

void CaseMemo::retire(const ExperimentJob& job) {
  if (!job.scenario) return;
  const Key k = cell_key(job);
  std::shared_ptr<const HeuristicCase> dropped;  // destroyed after unlock
  util::MutexLock lock(&mu_);
  auto uses = uses_left_.find(k);
  if (uses == uses_left_.end() || --uses->second > 0) return;
  uses_left_.erase(uses);
  auto it = entries_.find(k);
  if (it == entries_.end()) return;
  dropped = std::move(it->second.c);
  entries_.erase(it);
}

long CaseMemo::builds() const {
  util::MutexLock lock(&mu_);
  return builds_;
}

GridJob make_grid_job(const ExperimentSpec& spec, const ExperimentJob& job) {
  GridJob g;
  g.result.job = job;
  g.options = derived_job_options(spec, job.index, &g.result.seed);
  g.result.options_fingerprint = g.options.fingerprint();
  return g;
}

JobResult run_grid_job(GridJob g, CaseMemo& cases, bool concurrent) {
  JobResult& jr = g.result;
  try {
    const std::shared_ptr<const HeuristicCase> c = cases.acquire(jr.job);
    if (!c) {
      jr.error = cases.registry().contains(jr.job.case_name)
                     ? "case cannot build from a scenario "
                       "(default-only registration)"
                     : "unknown case";
    } else {
      if (concurrent && g.options.explain.workers <= 0)
        g.options.explain.workers = 1;
      jr.pipeline = run_pipeline(*c, g.options);
      jr.ok = true;
    }
  } catch (const std::exception& e) {
    jr.ok = false;
    jr.error = std::string("job threw: ") + e.what();
  } catch (...) {
    jr.ok = false;
    jr.error = "job threw a non-standard exception";
  }
  cases.retire(jr.job);
  return std::move(jr);
}

generalize::GeneralizerResult generalize_jobs(
    const std::vector<JobSummary>& jobs, const ExperimentSpec& spec) {
  std::vector<PipelineResult> slim;
  slim.reserve(jobs.size());
  for (const JobSummary& j : jobs) {
    if (!j.ok) continue;
    PipelineResult r;
    r.features = j.features;
    r.gap_scale = j.gap_scale;
    r.best_gap_found = std::max(j.max_seed_gap, j.best_gap_found);
    slim.push_back(std::move(r));
  }
  return generalize::generalize_batch(slim, spec.grammar, spec.normalize_gap);
}

}  // namespace xplain
