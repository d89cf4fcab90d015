#include "server/protocol.h"

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "engine/engine.h"
#include "scenario/spec_json.h"
#include "util/json.h"

namespace xplain::server {

namespace {

using util::Json;

// Integer fields are checked reads (util::Json::read_int): a bad value
// ("samples":1e300, "seed":-1) records the first such field in *err, and
// the caller rejects the request before anything runs or is cached.
template <typename T>
T int_or(const Json& obj, const char* key, T dflt, std::string* err) {
  if (!obj.read_int(key, &dflt) && err->empty())
    *err = std::string("field \"") + key +
           "\" must be a whole number within its integer range";
  return dflt;
}

bool bool_or(const Json& obj, const char* key, bool dflt) {
  const Json* v = obj.find(key);
  return v && v->kind() == Json::Kind::kBool ? v->as_bool() : dflt;
}

void parse_pipeline_options(const Json& v, PipelineOptions* o,
                            std::string* err) {
  o->min_gap = v.num_or("min_gap", o->min_gap);
  o->seed_salt = int_or(v, "seed_salt", o->seed_salt, err);
  if (const Json* s = v.find("subspace")) {
    auto& sub = o->subspace;
    sub.bad_gap_fraction = s->num_or("bad_gap_fraction", sub.bad_gap_fraction);
    sub.density_threshold =
        s->num_or("density_threshold", sub.density_threshold);
    sub.dkw_eps = s->num_or("dkw_eps", sub.dkw_eps);
    sub.dkw_delta = s->num_or("dkw_delta", sub.dkw_delta);
    sub.init_half_width_frac =
        s->num_or("init_half_width_frac", sub.init_half_width_frac);
    sub.slice_frac = s->num_or("slice_frac", sub.slice_frac);
    sub.max_expansion_rounds =
        int_or(*s, "max_expansion_rounds", sub.max_expansion_rounds, err);
    sub.tree_samples = int_or(*s, "tree_samples", sub.tree_samples, err);
    sub.tree_inflate_frac =
        s->num_or("tree_inflate_frac", sub.tree_inflate_frac);
    sub.max_subspaces = int_or(*s, "max_subspaces", sub.max_subspaces, err);
    sub.seed = int_or(*s, "seed", sub.seed, err);
    sub.keep_insignificant =
        bool_or(*s, "keep_insignificant", sub.keep_insignificant);
    if (const Json* t = s->find("tree")) {
      sub.tree.max_depth = int_or(*t, "max_depth", sub.tree.max_depth, err);
      sub.tree.min_samples_leaf =
          int_or(*t, "min_samples_leaf", sub.tree.min_samples_leaf, err);
      sub.tree.max_thresholds =
          int_or(*t, "max_thresholds", sub.tree.max_thresholds, err);
    }
    if (const Json* g = s->find("significance")) {
      sub.significance.pairs = int_or(*g, "pairs", sub.significance.pairs, err);
      sub.significance.p_threshold =
          g->num_or("p_threshold", sub.significance.p_threshold);
      sub.significance.shell_frac =
          g->num_or("shell_frac", sub.significance.shell_frac);
      sub.significance.seed = int_or(*g, "seed", sub.significance.seed, err);
      sub.significance.workers =
          int_or(*g, "workers", sub.significance.workers, err);
    }
  }
  if (const Json* e = v.find("explain")) {
    o->explain.samples = int_or(*e, "samples", o->explain.samples, err);
    o->explain.flow_eps = e->num_or("flow_eps", o->explain.flow_eps);
    o->explain.seed = int_or(*e, "seed", o->explain.seed, err);
    o->explain.attempts_per_sample =
        int_or(*e, "attempts_per_sample", o->explain.attempts_per_sample, err);
    o->explain.workers = int_or(*e, "workers", o->explain.workers, err);
  }
}

bool parse_spec(const Json& v, ExperimentSpec* spec,
                std::string* err) {
  if (v.kind() != Json::Kind::kObject) {
    *err = "spec must be an object";
    return false;
  }
  const Json* cases = v.find("cases");
  if (!cases || cases->kind() != Json::Kind::kArray || cases->size() == 0) {
    *err = "spec.cases must be a non-empty array of case names";
    return false;
  }
  for (const Json& c : cases->items()) {
    if (c.kind() != Json::Kind::kString) {
      *err = "spec.cases entries must be strings";
      return false;
    }
    spec->cases.push_back(c.as_str());
  }
  if (const Json* scens = v.find("scenarios")) {
    if (scens->kind() != Json::Kind::kArray) {
      *err = "spec.scenarios must be an array";
      return false;
    }
    for (const Json& s : scens->items()) {
      // The shared scenario JSON codec (scenario/spec_json.h) — the same
      // parser the fuzzer's discovery archive uses, so the daemon accepts
      // failed_links / capacity_degradation and string seeds for free.
      const auto scen = scenario::spec_from_json(s, err);
      if (!scen) return false;
      spec->scenarios.push_back(*scen);
    }
  }
  spec->seed = int_or(v, "seed", spec->seed, err);
  spec->reseed_jobs = bool_or(v, "reseed_jobs", spec->reseed_jobs);
  spec->run_generalizer = bool_or(v, "run_generalizer", spec->run_generalizer);
  spec->normalize_gap = bool_or(v, "normalize_gap", spec->normalize_gap);
  if (const Json* o = v.find("options"))
    parse_pipeline_options(*o, &spec->options, err);
  // The option axis: each entry starts from the parsed base options and
  // applies its own overrides; the grid crosses cases x scenarios x
  // variants with variants innermost (ExperimentSpec::option_variants).
  if (const Json* vars = v.find("option_variants")) {
    if (vars->kind() != Json::Kind::kArray) {
      *err = "spec.option_variants must be an array of options objects";
      return false;
    }
    for (const Json& ov : vars->items()) {
      if (ov.kind() != Json::Kind::kObject) {
        *err = "spec.option_variants entries must be objects";
        return false;
      }
      PipelineOptions variant = spec->options;
      parse_pipeline_options(ov, &variant, err);
      spec->option_variants.push_back(variant);
    }
  }
  return err->empty();  // else an integer field the readers rejected
}

void emit(std::ostream& out, const Json& event) {
  out << event.dump(0) << "\n" << std::flush;
}

void emit_error(std::ostream& out, const Json* id,
                const std::string& message) {
  Json e = Json::object();
  e.set("event", "error");
  if (id) e.set("id", *id);
  e.set("message", message);
  emit(out, e);
}

// Counters are emitted as decimal STRINGS, not JSON numbers: the util/json
// number is a double, and a long-lived daemon's cumulative counters (or a
// cache_bytes high-water on a big box) can exceed 2^53 — the same
// precision convention JobSummary uses for 64-bit seeds.  Clients parse
// the strings back to exact integers (tools/xplain_client.py does).
Json stats_json(const ServiceStats& s) {
  Json j = Json::object();
  j.set("submissions", std::to_string(s.submissions));
  j.set("jobs_submitted", std::to_string(s.jobs_submitted));
  j.set("jobs_completed", std::to_string(s.jobs_completed));
  j.set("jobs_failed", std::to_string(s.jobs_failed));
  j.set("duplicate_deliveries", std::to_string(s.duplicate_deliveries));
  j.set("cache_hits", std::to_string(s.cache_hits));
  j.set("cache_misses", std::to_string(s.cache_misses));
  j.set("cache_inflight_waits", std::to_string(s.cache_inflight_waits));
  j.set("cache_fast_fails", std::to_string(s.cache_fast_fails));
  j.set("cache_evictions", std::to_string(s.cache_evictions));
  j.set("cache_replayed", std::to_string(s.cache_replayed));
  j.set("cache_entries", std::to_string(s.cache_entries));
  j.set("cache_bytes", std::to_string(s.cache_bytes));
  j.set("case_builds", std::to_string(s.case_builds));
  return j;
}

void handle_submit(Service& service, const Json& req, std::ostream& out) {
  const Json* id = req.find("id");
  const Json* spec_json = req.find("spec");
  if (!spec_json) {
    emit_error(out, id, "submit requires a \"spec\" object");
    return;
  }
  ExperimentSpec spec;
  std::string err;
  if (!parse_spec(*spec_json, &spec, &err)) {
    emit_error(out, id, err);
    return;
  }
  // Counted without building the grid.  Each factor is an array parsed
  // from one request line, so below 2^20, and the product fits in 64 bits.
  const std::uint64_t jobs = spec.job_count();
  if (jobs > kMaxGridJobs) {
    emit_error(out, id,
               "submit grid has " + std::to_string(jobs) +
                   " jobs; the limit is " + std::to_string(kMaxGridJobs));
    return;
  }
  {
    Json a = Json::object();
    a.set("event", "accepted");
    if (id) a.set("id", *id);
    a.set("jobs", static_cast<double>(jobs));
    emit(out, a);
  }
  // The callback runs on worker threads, serialized per submission; the
  // main thread blocks in wait() meanwhile, so stdout has one writer.
  const std::uint64_t handle = service.submit(
      spec, [id, &out](const JobSummary& s, bool from_cache) {
        Json e = Json::object();
        e.set("event", "job");
        if (id) e.set("id", *id);
        e.set("cached", from_cache);
        e.set("job", s.to_json_value());
        emit(out, e);
      });
  if (handle == Service::kRejected) {
    emit_error(out, id, "service is draining; submission rejected");
    return;
  }
  const ExperimentSummary summary = service.wait(handle);
  Json d = Json::object();
  d.set("event", "done");
  if (id) d.set("id", *id);
  d.set("jobs", static_cast<double>(summary.jobs.size()));
  std::optional<Json> sj = Json::parse(summary.to_json(0));
  d.set("summary", sj ? std::move(*sj) : Json());
  d.set("stats", stats_json(service.stats()));
  emit(out, d);
}

// std::getline with a bound: false at EOF; otherwise consumes through the
// next '\n' but keeps at most kMaxRequestBytes + 1 bytes, so a longer line
// comes back over the limit without ever being held whole.
bool read_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf* buf = in.rdbuf();
  int c = buf->sbumpc();
  if (c == std::char_traits<char>::eof()) return false;
  for (; c != std::char_traits<char>::eof() && c != '\n'; c = buf->sbumpc())
    if (line.size() <= kMaxRequestBytes) line.push_back(static_cast<char>(c));
  return true;
}

}  // namespace

void serve(Service& service, std::istream& in, std::ostream& out) {
  std::string line;
  while (read_line(in, line)) {
    if (line.size() > kMaxRequestBytes) {
      emit_error(out, nullptr,
                 "request line longer than " +
                     std::to_string(kMaxRequestBytes) + " bytes; discarded");
      continue;
    }
    if (line.empty()) continue;
    std::optional<Json> req = Json::parse(line);
    if (!req || req->kind() != Json::Kind::kObject) {
      emit_error(out, nullptr,
                 "malformed request (want one JSON object per line)");
      continue;
    }
    const Json* op = req->find("op");
    const std::string opname =
        op && op->kind() == Json::Kind::kString ? op->as_str() : "";
    if (opname == "submit") {
      handle_submit(service, *req, out);
    } else if (opname == "stats") {
      Json e = stats_json(service.stats());
      e.set("event", "stats");
      emit(out, e);
    } else if (opname == "drain") {
      service.drain();
      Json e = Json::object();
      e.set("event", "drained");
      emit(out, e);
    } else if (opname == "shutdown") {
      Json e = Json::object();
      e.set("event", "bye");
      emit(out, e);
      return;
    } else {
      emit_error(out, req->find("id"),
                 "unknown op \"" + opname +
                     "\" (want submit | stats | drain | shutdown)");
    }
  }
}

}  // namespace xplain::server
