#include "search/archive.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>

#include "scenario/spec_json.h"

namespace xplain::search {

namespace {

using util::Json;

bool before(const Discovery& a, const Discovery& b) {
  return std::tie(a.case_name, a.bucket) < std::tie(b.case_name, b.bucket);
}

}  // namespace

void Archive::add(const Discovery& d) {
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), d, before);
  if (it != entries_.end() && it->case_name == d.case_name &&
      it->bucket == d.bucket) {
    if (d.norm_gap > it->norm_gap) *it = d;
    return;
  }
  entries_.insert(it, d);
}

std::string Archive::to_json(int indent) const {
  Json root = Json::object();
  Json arr = Json::array();
  for (const auto& d : entries_) {
    Json e = Json::object();
    e.set("case", d.case_name);
    e.set("scenario", scenario::spec_to_json(d.spec));
    e.set("gap", d.gap);
    e.set("norm_gap", d.norm_gap);
    e.set("bucket", d.bucket);
    e.set("generation", d.generation);
    e.set("options_fingerprint", d.options_fingerprint);
    arr.push(std::move(e));
  }
  root.set("discoveries", std::move(arr));
  return root.dump(indent);
}

std::optional<Archive> Archive::from_json(const std::string& text,
                                          std::string* err) {
  const auto fail = [&](const std::string& message) {
    if (err) *err = message;
    return std::nullopt;
  };
  const std::optional<Json> parsed = Json::parse(text);
  if (!parsed || parsed->kind() != Json::Kind::kObject)
    return fail("archive must be a JSON object");
  const Json* arr = parsed->find("discoveries");
  if (!arr || arr->kind() != Json::Kind::kArray)
    return fail("archive.discoveries must be an array");
  Archive out;
  for (const Json& e : arr->items()) {
    if (e.kind() != Json::Kind::kObject)
      return fail("discovery entries must be objects");
    Discovery d;
    const Json* c = e.find("case");
    if (!c || c->kind() != Json::Kind::kString)
      return fail("discovery.case must be a string");
    d.case_name = c->as_str();
    const Json* scen = e.find("scenario");
    if (!scen) return fail("discovery.scenario is required");
    std::string spec_err;
    const std::optional<scenario::ScenarioSpec> spec =
        scenario::spec_from_json(*scen, &spec_err);
    if (!spec) return fail("discovery.scenario: " + spec_err);
    d.spec = *spec;
    d.gap = e.num_or("gap");
    d.norm_gap = e.num_or("norm_gap");
    d.bucket = e.str_or("bucket");
    if (!e.read_int("generation", &d.generation))
      return fail("discovery.generation must be a whole number in int range");
    d.options_fingerprint = e.str_or("options_fingerprint");
    out.add(d);
  }
  return out;
}

bool Archive::save(const std::string& path, int indent) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json(indent) << "\n";
  return static_cast<bool>(f);
}

std::optional<Archive> Archive::load(const std::string& path,
                                     std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_json(buf.str(), err);
}

}  // namespace xplain::search
