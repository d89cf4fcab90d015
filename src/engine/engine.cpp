#include "engine/engine.h"

#include <algorithm>

#include "engine/grid_job.h"
#include "generalize/grammar.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace xplain {

namespace {

/// Serializes the user's JobCallback across pool workers.  A named class
/// (not a lambda-captured local mutex) so clang's thread-safety analysis
/// sees the callback/mutex pairing: user callbacks are not required to be
/// re-entrant, and the annotation machine-checks that every invocation
/// goes through emit().  Completion ORDER still depends on scheduling;
/// job CONTENT does not (slot determinism).
class CallbackStream {
 public:
  explicit CallbackStream(const Engine::JobCallback& cb)
      : has_cb_(static_cast<bool>(cb)), cb_(cb) {}

  void emit(const JobResult& jr) XPLAIN_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    cb_(jr);
  }

  explicit operator bool() const { return has_cb_; }

 private:
  const bool has_cb_;  // immutable after construction: safe to read unlocked
  util::Mutex mu_;
  /// The callback itself is immutable; mu_ guards its *invocation* — what
  /// GUARDED_BY expresses here is "calls are mutually excluded".
  const Engine::JobCallback& cb_ XPLAIN_GUARDED_BY(mu_);
};

// The job digest's LP counters (LpCounterField::in_digest): the digest is
// the server's cached wire format, so every copy, comparison, serializer
// and parser below goes through these three and the key set never moves.
solver::LpCounters digest_lp(const solver::LpCounters& lp) {
  solver::LpCounters d;
  for (const solver::LpCounterField& f : solver::kLpCounterFields)
    if (f.in_digest) d.*f.member = lp.*f.member;
  return d;
}

void set_digest_lp(util::Json& obj, const solver::LpCounters& lp) {
  for (const solver::LpCounterField& f : solver::kLpCounterFields)
    if (f.in_digest) obj.set(f.key, lp.*f.member);
}

bool read_digest_lp(const util::Json& obj, solver::LpCounters* lp) {
  for (const solver::LpCounterField& f : solver::kLpCounterFields)
    if (f.in_digest && !obj.read_int(f.key, &(lp->*f.member))) return false;
  return true;
}

}  // namespace

PipelineOptions derived_job_options(const ExperimentSpec& spec, int index,
                                    std::uint64_t* seed_out) {
  // Every job's RNG streams derive purely from (spec seed, base options,
  // grid index): decorrelated across jobs and experiments, identical for
  // any worker count.  With an option axis the variant is recovered from
  // the index alone (variants are the innermost expand() loop), keeping
  // this a pure function of (spec, index) — the contract the server's
  // worker pool replays jobs through.
  const std::size_t n_variants = spec.option_variants.size();
  const PipelineOptions& base =
      n_variants == 0
          ? spec.options
          : spec.option_variants[static_cast<std::size_t>(index) % n_variants];
  if (!spec.reseed_jobs) {
    if (seed_out) *seed_out = base.seed_salt;
    return base;
  }
  const std::uint64_t salt = util::Rng::derive_seed(spec.seed, index + 1);
  if (seed_out) *seed_out = salt;
  return apply_seed_salt(base, salt);
}

bool JobSummary::operator==(const JobSummary& o) const {
  return case_name == o.case_name && scenario == o.scenario &&
         index == o.index && ok == o.ok && error == o.error &&
         subspaces == o.subspaces && significant == o.significant &&
         best_gap_found == o.best_gap_found &&
         max_seed_gap == o.max_seed_gap && gap_scale == o.gap_scale &&
         wall_seconds == o.wall_seconds && digest_lp(lp) == digest_lp(o.lp) &&
         features == o.features && seed == o.seed &&
         options_fingerprint == o.options_fingerprint;
}

bool TrendSummary::operator==(const TrendSummary& o) const {
  return predicate == o.predicate && feature == o.feature &&
         increasing == o.increasing && rho == o.rho &&
         p_value == o.p_value && support == o.support;
}

bool ExperimentSummary::operator==(const ExperimentSummary& o) const {
  return jobs == o.jobs && trends == o.trends &&
         observations == o.observations && wall_seconds == o.wall_seconds &&
         digest_lp(lp) == digest_lp(o.lp);
}

util::Json JobSummary::to_json_value() const {
  util::Json jj = util::Json::object();
  jj.set("case", case_name);
  jj.set("scenario", scenario.empty() ? util::Json() : util::Json(scenario));
  jj.set("index", index);
  jj.set("ok", ok);
  if (!error.empty()) jj.set("error", error);
  jj.set("subspaces", subspaces);
  jj.set("significant", significant);
  jj.set("best_gap_found", best_gap_found);
  jj.set("max_seed_gap", max_seed_gap);
  jj.set("gap_scale", gap_scale);
  jj.set("wall_seconds", wall_seconds);
  set_digest_lp(jj, lp);
  // All 64 bits of the salt survive only as a string (doubles clip at
  // 2^53); from_json_value's read_int parses it back exactly.
  jj.set("seed", std::to_string(seed));
  jj.set("options_fingerprint", options_fingerprint);
  util::Json feats = util::Json::object();
  for (const auto& [k, v] : features) feats.set(k, v);
  jj.set("features", std::move(feats));
  return jj;
}

std::optional<JobSummary> JobSummary::from_json_value(const util::Json& jj) {
  if (jj.kind() != util::Json::Kind::kObject) return std::nullopt;
  JobSummary j;
  // Integer fields are checked reads: the cache parses journal lines here.
  if (!jj.read_int("index", &j.index) ||
      !jj.read_int("subspaces", &j.subspaces) ||
      !jj.read_int("significant", &j.significant) ||
      !jj.read_int("seed", &j.seed) || !read_digest_lp(jj, &j.lp))
    return std::nullopt;
  j.case_name = jj.str_or("case");
  j.scenario = jj.str_or("scenario");  // null -> "" (the default instance)
  const util::Json* ok = jj.find("ok");
  j.ok = ok && ok->as_bool();
  j.error = jj.str_or("error");
  j.best_gap_found = jj.num_or("best_gap_found");
  j.max_seed_gap = jj.num_or("max_seed_gap");
  j.gap_scale = jj.num_or("gap_scale");
  j.wall_seconds = jj.num_or("wall_seconds");
  j.options_fingerprint = jj.str_or("options_fingerprint");
  if (const util::Json* feats = jj.find("features"))
    for (const auto& [k, v] : feats->members()) j.features[k] = v.as_num();
  return j;
}

std::string ExperimentSummary::to_json(int indent) const {
  util::Json root = util::Json::object();
  util::Json job_arr = util::Json::array();
  for (const auto& j : jobs) job_arr.push(j.to_json_value());
  root.set("jobs", std::move(job_arr));

  util::Json trend_arr = util::Json::array();
  for (const auto& t : trends) {
    util::Json tj = util::Json::object();
    tj.set("predicate", t.predicate);
    tj.set("feature", t.feature);
    tj.set("trend", t.increasing ? "increasing" : "decreasing");
    tj.set("rho", t.rho);
    tj.set("p_value", t.p_value);
    tj.set("support", t.support);
    trend_arr.push(std::move(tj));
  }
  root.set("trends", std::move(trend_arr));
  root.set("observations", observations);
  root.set("wall_seconds", wall_seconds);
  set_digest_lp(root, lp);
  return root.dump(indent);
}

std::optional<ExperimentSummary> ExperimentSummary::from_json(
    const std::string& text) {
  const auto parsed = util::Json::parse(text);
  if (!parsed || parsed->kind() != util::Json::Kind::kObject)
    return std::nullopt;
  const util::Json* jobs = parsed->find("jobs");
  const util::Json* trends = parsed->find("trends");
  if (!jobs || jobs->kind() != util::Json::Kind::kArray || !trends ||
      trends->kind() != util::Json::Kind::kArray)
    return std::nullopt;

  ExperimentSummary out;
  for (const auto& jj : jobs->items()) {
    std::optional<JobSummary> j = JobSummary::from_json_value(jj);
    if (!j) return std::nullopt;
    out.jobs.push_back(std::move(*j));
  }
  for (const auto& tj : trends->items()) {
    if (tj.kind() != util::Json::Kind::kObject) return std::nullopt;
    TrendSummary t;
    t.predicate = tj.str_or("predicate");
    t.feature = tj.str_or("feature");
    t.increasing = tj.str_or("trend") != "decreasing";
    t.rho = tj.num_or("rho");
    t.p_value = tj.num_or("p_value");
    if (!tj.read_int("support", &t.support)) return std::nullopt;
    out.trends.push_back(std::move(t));
  }
  if (!parsed->read_int("observations", &out.observations) ||
      !read_digest_lp(*parsed, &out.lp))
    return std::nullopt;
  out.wall_seconds = parsed->num_or("wall_seconds");
  return out;
}

int ExperimentResult::total_subspaces() const {
  int n = 0;
  for (const auto& j : jobs) n += static_cast<int>(j.pipeline.subspaces.size());
  return n;
}

JobSummary make_job_summary(const JobResult& j) {
  JobSummary s;
  s.case_name = j.job.case_name;
  s.scenario = j.job.scenario ? j.job.scenario->display_name() : std::string();
  s.index = j.job.index;
  s.ok = j.ok;
  s.error = j.error;
  s.subspaces = static_cast<int>(j.pipeline.subspaces.size());
  s.significant = j.pipeline.significant_count();
  s.best_gap_found = j.pipeline.best_gap_found;
  s.max_seed_gap = j.pipeline.max_gap();
  s.gap_scale = j.pipeline.gap_scale;
  s.wall_seconds = j.pipeline.wall_seconds;
  s.lp = digest_lp(j.pipeline.stages.lp);
  s.features = j.pipeline.features;
  s.seed = j.seed;
  s.options_fingerprint = j.options_fingerprint;
  return s;
}

std::vector<TrendSummary> make_trend_summaries(
    const generalize::GeneralizerResult& g) {
  std::vector<TrendSummary> out;
  out.reserve(g.predicates.size());
  for (const auto& p : g.predicates) {
    TrendSummary t;
    t.predicate = p.to_string();
    t.feature = p.feature;
    t.increasing = p.trend == generalize::Trend::kIncreasing;
    t.rho = p.rho;
    t.p_value = p.p_value;
    t.support = p.support;
    out.push_back(std::move(t));
  }
  return out;
}

ExperimentSummary ExperimentResult::summary() const {
  ExperimentSummary out;
  out.jobs.reserve(jobs.size());
  for (const auto& j : jobs) out.jobs.push_back(make_job_summary(j));
  out.trends = make_trend_summaries(trends);
  out.observations = static_cast<int>(trends.observations.size());
  out.wall_seconds = wall_seconds;
  out.lp = digest_lp(stages.lp);
  return out;
}

std::uint64_t ExperimentSpec::job_count() const {
  return std::uint64_t{cases.size()} *
         std::max<std::uint64_t>(1, scenarios.size()) *
         std::max<std::uint64_t>(1, option_variants.size());
}

std::vector<ExperimentJob> Engine::expand(const ExperimentSpec& spec) const {
  // Variants are the INNERMOST axis so derived_job_options can recover the
  // variant as index % n_variants without seeing the job list.
  const int n_variants =
      std::max(1, static_cast<int>(spec.option_variants.size()));
  const bool has_variants = !spec.option_variants.empty();
  std::vector<ExperimentJob> jobs;
  jobs.reserve(static_cast<std::size_t>(spec.job_count()));
  const auto push_cell = [&](const std::string& name,
                             const scenario::ScenarioSpec* scen) {
    for (int v = 0; v < n_variants; ++v) {
      ExperimentJob job;
      job.case_name = name;
      if (scen) job.scenario = *scen;
      job.index = static_cast<int>(jobs.size());
      if (has_variants) job.option_index = v;
      jobs.push_back(std::move(job));
    }
  };
  for (const auto& name : spec.cases) {
    if (spec.scenarios.empty()) {
      push_cell(name, nullptr);
      continue;
    }
    for (const auto& scen : spec.scenarios) push_cell(name, &scen);
  }
  return jobs;
}

ExperimentResult Engine::run(const ExperimentSpec& spec,
                             const JobCallback& on_job) const {
  util::Timer timer;
  ExperimentResult out;

  const std::vector<ExperimentJob> jobs = expand(spec);
  out.jobs.resize(jobs.size());

  const int workers =
      std::max(1, std::min<int>(util::resolve_workers(spec.workers),
                                static_cast<int>(jobs.size())));
  CallbackStream stream(on_job);

  // One build per unique (case, scenario.cache_key()) cell, shared across
  // its jobs (a replication grid lists the same cell many times: the spec's
  // seed decorrelates the jobs, not the instance).  The plan drops each
  // instance when its last job retires, so peak memory stays one instance
  // per cell in flight.
  CaseMemo cases(*registry_);
  cases.plan(jobs);

  // Slot-determinism (util/parallel.h): each job's result lands in its grid
  // slot and depends only on (registry content, spec, index) — scheduling
  // changes wall clock and callback order, never content.  out.jobs is the
  // slot store: resized before the pool starts, each slot written by exactly
  // one worker, read by others only after the parallel_chunks join — no
  // mutex, by design (annotating it GUARDED_BY would claim a lock that
  // deliberately does not exist; TSan checks this handoff instead).
  util::parallel_chunks(
      jobs.size(), workers, [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t i = begin; i < end; ++i) {
          out.jobs[i] = run_grid_job(make_grid_job(spec, jobs[i]), cases,
                                     /*concurrent=*/workers > 1);
          if (stream) stream.emit(out.jobs[i]);
        }
      });
  out.case_builds = static_cast<int>(cases.builds());

  // The experiment's LP total is the sum of the exact per-job deltas, the
  // same derivation Service::wait uses.
  for (const auto& j : out.jobs) {
    out.trace += j.pipeline.trace;
    out.stages += j.pipeline.stages;
  }

  if (spec.run_generalizer)
    out.trends = generalize_jobs(out.summary().jobs, spec);

  out.wall_seconds = timer.seconds();
  XPLAIN_INFO << "engine: " << jobs.size() << " jobs ("
              << spec.cases.size() << " cases x "
              << std::max<std::size_t>(1, spec.scenarios.size())
              << " scenarios), " << out.total_subspaces() << " subspaces, "
              << out.trends.predicates.size() << " trends, " << workers
              << " workers, " << out.wall_seconds << "s";
  return out;
}

}  // namespace xplain
