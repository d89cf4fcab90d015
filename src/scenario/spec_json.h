// ScenarioSpec <-> util::Json: the one serialization both the xplaind wire
// protocol and the fuzzer's committed discovery corpus use, so a spec
// written anywhere is readable everywhere.
//
// spec_to_json always emits every field in a fixed order (kind, size,
// capacity, waxman_alpha, waxman_beta, seed, failed_links,
// capacity_degradation) with the 64-bit seed as a decimal string (JSON
// numbers clip above 2^53) and doubles via util::Json's max_digits10
// printing — so to -> from -> to round-trips byte-for-byte.  spec_from_json
// is lenient the way the daemon always was: absent fields keep their spec
// defaults.  It is also the trust boundary for both the daemon and the
// archive: a malformed shape, an unknown kind, an integer field that is
// fractional or out of its type's range, and a value the generators cannot
// build (fat-tree arity odd or < 2, any other size < 2, failed_links < 0,
// capacity, Waxman alpha or beta not finite and > 0, capacity_degradation
// outside (0, 1]) are errors naming the field.
#pragma once

#include <optional>
#include <string>

#include "scenario/spec.h"
#include "util/json.h"

namespace xplain::scenario {

util::Json spec_to_json(const ScenarioSpec& spec);

/// Parses a spec object; on failure returns std::nullopt and, when `err` is
/// non-null, a human-readable reason.
std::optional<ScenarioSpec> spec_from_json(const util::Json& v,
                                           std::string* err = nullptr);

}  // namespace xplain::scenario
