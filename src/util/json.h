// A minimal JSON value: build, dump, parse.  Just enough machinery for the
// repo's machine-readable outputs (the experiment engine's ExperimentResult
// serialization, BENCH_*.json) to be written AND read back — round-trips
// are testable, and tools/bench_compare.py's consumers stay in sync with
// one producer.
//
// Deliberately small: ordered object members (deterministic output),
// doubles printed with max_digits10 so numeric round-trips are exact,
// UTF-8 strings passed through with standard escapes.  Not a general JSON
// library — no comments, no NaN/Inf (serialized as null), no \u surrogate
// pairs on output.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace xplain::util {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(long v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Scalar accessors with defaults (wrong-kind access yields the default —
  /// consumers validate shape via find()/size() first).
  bool as_bool(bool dflt = false) const {
    return kind_ == Kind::kBool ? bool_ : dflt;
  }
  double as_num(double dflt = 0.0) const {
    return kind_ == Kind::kNumber ? num_ : dflt;
  }
  const std::string& as_str() const { return str_; }

  /// Array access.
  void push(Json v) { arr_.push_back(std::move(v)); }
  std::size_t size() const { return arr_.size(); }
  const Json& at(std::size_t i) const { return arr_[i]; }
  const std::vector<Json>& items() const { return arr_; }

  /// Object access (insertion-ordered; set() appends or overwrites).
  void set(const std::string& key, Json v);
  const Json* find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Lenient reads of optional members: `dflt` (or "") when the key is
  /// absent or holds another kind.
  double num_or(const std::string& key, double dflt = 0.0) const {
    const Json* v = find(key);
    return v ? v->as_num(dflt) : dflt;
  }
  std::string str_or(const std::string& key) const {
    const Json* v = find(key);
    return v ? v->str_ : std::string();
  }

  /// The checked integer read (a static_cast of an out-of-range double is
  /// undefined behaviour).  Absent key: *out untouched.  A whole number in
  /// T's range, or a decimal string that parses to a T (integers past 2^53
  /// travel as strings), is stored; anything else returns false.
  template <typename T>
  bool read_int(const std::string& key, T* out) const {
    static_assert(std::is_integral_v<T>, "read_int reads integer types");
    const Json* v = find(key);
    if (!v) return true;
    if (v->kind_ == Kind::kString) {
      const char* end = v->str_.data() + v->str_.size();
      T n{};
      const auto [stop, ec] = std::from_chars(v->str_.data(), end, n);
      if (ec != std::errc() || stop != end) return false;
      *out = n;
      return true;
    }
    // T's range as the half-open [lo, 2^digits): both ends are exact doubles.
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double lo = std::is_signed_v<T> ? -hi : 0.0;
    const double x = v->num_;
    if (v->kind_ != Kind::kNumber || !(x >= lo && x < hi) || std::trunc(x) != x)
      return false;
    *out = static_cast<T>(x);
    return true;
  }

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 2) const;

  /// Parses a JSON document; std::nullopt on any syntax error or trailing
  /// garbage.
  static std::optional<Json> parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace xplain::util
