#include "scenario/spec_json.h"

namespace xplain::scenario {

namespace {

using util::Json;

}  // namespace

Json spec_to_json(const ScenarioSpec& spec) {
  Json j = Json::object();
  j.set("kind", to_string(spec.kind));
  j.set("size", spec.size);
  j.set("capacity", spec.capacity);
  j.set("waxman_alpha", spec.waxman_alpha);
  j.set("waxman_beta", spec.waxman_beta);
  j.set("seed", std::to_string(spec.seed));
  j.set("failed_links", spec.failed_links);
  j.set("capacity_degradation", spec.capacity_degradation);
  return j;
}

std::optional<ScenarioSpec> spec_from_json(const Json& v, std::string* err) {
  const auto fail = [&](const std::string& message) {
    if (err) *err = message;
    return std::nullopt;
  };
  if (v.kind() != Json::Kind::kObject) return fail("scenario must be an object");
  ScenarioSpec out;
  const Json* kind = v.find("kind");
  if (kind && kind->kind() == Json::Kind::kString) {
    const std::string& k = kind->as_str();
    if (k == "fat_tree") out.kind = TopologyKind::kFatTree;
    else if (k == "waxman") out.kind = TopologyKind::kWaxman;
    else if (k == "line") out.kind = TopologyKind::kLine;
    else if (k == "star") out.kind = TopologyKind::kStar;
    else return fail("unknown scenario kind \"" + k + "\"");
  }
  // Integer fields are checked reads, never casts (the seed may be a
  // decimal string: numbers clip above 2^53).
  const auto bad_int = [&](const char* key) {
    return fail(std::string("scenario field \"") + key +
                "\" must be a whole number within its integer range");
  };
  if (!v.read_int("size", &out.size)) return bad_int("size");
  if (!v.read_int("failed_links", &out.failed_links))
    return bad_int("failed_links");
  if (!v.read_int("seed", &out.seed)) return bad_int("seed");
  out.capacity = v.num_or("capacity", out.capacity);
  out.waxman_alpha = v.num_or("waxman_alpha", out.waxman_alpha);
  out.waxman_beta = v.num_or("waxman_beta", out.waxman_beta);
  out.capacity_degradation =
      v.num_or("capacity_degradation", out.capacity_degradation);
  return out;
}

}  // namespace xplain::scenario
