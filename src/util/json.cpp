#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace xplain::util {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  // Integers print exactly (the range check must precede the cast: a
  // float-to-integer conversion outside long long's range is UB);
  // everything else via to_chars' shortest round-trip form, which is also
  // locale-independent — printf-family %g honors LC_NUMERIC and would emit
  // "0,5" under e.g. de_DE.
  if (std::fabs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void Json::set(const std::string& key, Json v) {
  kind_ = Kind::kObject;
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(indent > 0 ? indent * (depth + 1) : 0, ' ');
  const std::string close_pad(indent > 0 ? indent * depth : 0, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, num_); break;
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += i ? "," : "";
        out += nl;
        out += pad;
        arr_[i].dump_to(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        out += first ? "" : ",";
        first = false;
        out += nl;
        out += pad;
        append_escaped(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Deepest array/object nesting parse() accepts.  Each level recurses once,
/// so without a bound a hostile line of "[[[[..." overflows the stack; real
/// documents (job summaries, specs, the cache journal, the fuzz archive)
/// nest a handful of levels.
constexpr int kMaxNestingDepth = 256;

struct Parser {
  const char* p;
  const char* end;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }

  bool literal(const char* lit) {
    const char* q = p;
    while (*lit) {
      if (q >= end || *q != *lit) return false;
      ++q, ++lit;
    }
    p = q;
    return true;
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return false;
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (++p >= end) return false;
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (end - p < 5) return false;
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code |= c - '0';
              else if (c >= 'a' && c <= 'f') code |= c - 'a' + 10;
              else if (c >= 'A' && c <= 'F') code |= c - 'A' + 10;
              else return false;
            }
            p += 4;
            // Basic-plane code points only (we never emit surrogates).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return false;
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }

  bool parse_value(Json& out) {
    if (depth == kMaxNestingDepth) return false;
    ++depth;
    const bool ok = parse_any(out);
    --depth;
    return ok;
  }

  bool parse_any(Json& out) {
    skip_ws();
    if (p >= end) return false;
    switch (*p) {
      case 'n': return literal("null") ? (out = Json(), true) : false;
      case 't': return literal("true") ? (out = Json(true), true) : false;
      case 'f': return literal("false") ? (out = Json(false), true) : false;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++p;
        out = Json::array();
        skip_ws();
        if (p < end && *p == ']') return ++p, true;
        while (true) {
          Json v;
          if (!parse_value(v)) return false;
          out.push(std::move(v));
          skip_ws();
          if (p >= end) return false;
          if (*p == ',') {
            ++p;
            continue;
          }
          if (*p == ']') return ++p, true;
          return false;
        }
      }
      case '{': {
        ++p;
        out = Json::object();
        skip_ws();
        if (p < end && *p == '}') return ++p, true;
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return false;
          ++p;
          Json v;
          if (!parse_value(v)) return false;
          out.set(key, std::move(v));
          skip_ws();
          if (p >= end) return false;
          if (*p == ',') {
            ++p;
            continue;
          }
          if (*p == '}') return ++p, true;
          return false;
        }
      }
      default: {
        // from_chars is locale-independent (strtod honors LC_NUMERIC and
        // would reject "1.5" under a comma-decimal locale) and does not
        // accept hex floats; it does parse "inf"/"nan", which JSON forbids
        // — the isfinite check rejects those.
        double v = 0.0;
        const auto res = std::from_chars(p, end, v);
        if (res.ec != std::errc() || res.ptr == p || !std::isfinite(v))
          return false;
        p = res.ptr;
        out = Json(v);
        return true;
      }
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(const std::string& text) {
  Parser parser{text.data(), text.data() + text.size(), 0};
  Json out;
  if (!parser.parse_value(out)) return std::nullopt;
  parser.skip_ws();
  if (parser.p != parser.end) return std::nullopt;  // trailing garbage
  return out;
}

}  // namespace xplain::util
