#include "service/wire.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "service/executor.hpp"
#include "service/query.hpp"

namespace smpst::service {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw WireError("wire: " + what + " at column " + std::to_string(pos + 1));
}

struct JsonScanner {
  const std::string& s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= s.size()) fail("unexpected end of line", pos);
    return s[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos);
    ++pos;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= s.size()) fail("unterminated string", pos);
      const char c = s[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= s.size()) fail("dangling escape", pos);
      const char e = s[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        default: fail("unsupported escape", pos - 1);
      }
    }
  }

  /// Number, true/false, or null — returned in normalized string form.
  std::string scalar_value() {
    const std::size_t start = pos;
    while (pos < s.size() && s[pos] != ',' && s[pos] != '}' &&
           std::isspace(static_cast<unsigned char>(s[pos])) == 0) {
      ++pos;
    }
    std::string tok = s.substr(start, pos - start);
    if (tok.empty()) fail("expected a value", start);
    if (tok == "true") return "1";
    if (tok == "false") return "0";
    if (tok == "null") return "";
    // Validate as a JSON number so typos fail loudly.
    std::size_t i = 0;
    if (tok[i] == '-' || tok[i] == '+') ++i;
    bool digits = false;
    bool dot = false;
    bool exp = false;
    for (; i < tok.size(); ++i) {
      const char c = tok[i];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        digits = true;
      } else if (c == '.' && !dot && !exp) {
        dot = true;
      } else if ((c == 'e' || c == 'E') && digits && !exp) {
        exp = true;
        if (i + 1 < tok.size() && (tok[i + 1] == '-' || tok[i + 1] == '+')) {
          ++i;
        }
      } else {
        fail("not a number: " + tok, start);
      }
    }
    if (!digits) fail("not a number: " + tok, start);
    return tok;
  }
};

Fields parse_json_object(const std::string& line) {
  JsonScanner sc{line};
  Fields fields;
  sc.skip_ws();
  sc.expect('{');
  sc.skip_ws();
  if (sc.peek() == '}') return fields;
  while (true) {
    sc.skip_ws();
    const std::string key = sc.string_value();
    sc.skip_ws();
    sc.expect(':');
    sc.skip_ws();
    fields[key] = sc.peek() == '"' ? sc.string_value() : sc.scalar_value();
    sc.skip_ws();
    if (sc.peek() == ',') {
      ++sc.pos;
      continue;
    }
    sc.expect('}');
    sc.skip_ws();
    if (sc.pos != line.size()) fail("trailing characters", sc.pos);
    return fields;
  }
}

Fields parse_word_form(const std::string& line) {
  Fields fields;
  std::size_t pos = 0;
  bool first = true;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
      ++pos;
    }
    if (pos >= line.size()) break;
    const std::size_t start = pos;
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])) == 0) {
      ++pos;
    }
    const std::string tok = line.substr(start, pos - start);
    const std::size_t eq = tok.find('=');
    if (first) {
      if (eq != std::string::npos) fail("first token must be the command",
                                        start);
      fields["cmd"] = tok;
      first = false;
    } else {
      if (eq == std::string::npos || eq == 0) {
        fail("expected key=value: " + tok, start);
      }
      fields[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  if (fields.empty()) fail("empty request", 0);
  return fields;
}

}  // namespace

Fields parse_line(const std::string& line) {
  if (line.size() > kMaxLineBytes) {
    throw WireError("wire: request line exceeds " +
                    std::to_string(kMaxLineBytes) + " bytes (got " +
                    std::to_string(line.size()) + ")");
  }
  std::size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i])) != 0) {
    ++i;
  }
  if (i < line.size() && line[i] == '{') return parse_json_object(line);
  return parse_word_form(line);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

JsonWriter& JsonWriter::raw(const std::string& name,
                            const std::string& rendered) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + json_escape(name) + "\":" + rendered;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& name,
                              const std::string& value) {
  return raw(name, '"' + json_escape(value) + '"');
}

JsonWriter& JsonWriter::field(const std::string& name, const char* value) {
  return field(name, std::string(value));
}

JsonWriter& JsonWriter::field(const std::string& name, std::int64_t value) {
  return raw(name, std::to_string(value));
}

JsonWriter& JsonWriter::field(const std::string& name, std::uint64_t value) {
  return raw(name, std::to_string(value));
}

JsonWriter& JsonWriter::field(const std::string& name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return raw(name, buf);
}

JsonWriter& JsonWriter::field(const std::string& name, bool value) {
  return raw(name, value ? "true" : "false");
}

std::string JsonWriter::str() const { return "{" + body_ + "}"; }

std::string render_error(WireErrorCode code, const std::string& message,
                         std::int64_t retry_after_ms) {
  JsonWriter w;
  w.field("ok", false);
  w.field("code", to_string(code));
  w.field("error", message);
  if (retry_after_ms >= 0) w.field("retry_after_ms", retry_after_ms);
  return w.str();
}

std::string render_result(const QueryResult& r) {
  JsonWriter w;
  w.field("status", to_string(r.status));
  w.field("graph", r.graph);
  w.field("algo", r.algorithm);
  if (!r.error.empty()) w.field("error", r.error);
  if (r.forest.num_vertices() > 0) {
    w.field("vertices", static_cast<std::uint64_t>(r.forest.num_vertices()));
    w.field("trees", static_cast<std::uint64_t>(r.num_trees));
  }
  if (r.validated) w.field("valid", r.validation.ok);
  // Robustness telemetry, emitted only when something unusual happened so
  // the common-case response shape stays unchanged.
  if (r.attempts > 1) {
    w.field("attempts", static_cast<std::uint64_t>(r.attempts));
  }
  if (r.degraded) w.field("degraded", true);
  // Gate on the request flag, not on whether stats data is present: a
  // stats=false query must get the plain response shape even when the run
  // left per-thread entries behind.
  if (r.stats_requested) {
    w.field("load_imbalance", r.stats.load_imbalance());
    w.field("steals", r.stats.total_steals());
    w.field("duplicate_expansions", r.stats.duplicate_expansions);
  }
  w.field("queue_ms", r.queue_ms);
  w.field("exec_ms", r.exec_ms);
  w.field("total_ms", r.total_ms);
  return w.str();
}

std::string render_stats(const ServiceStats& s) {
  JsonWriter w;
  w.field("submitted", s.submitted);
  w.field("accepted", s.accepted);
  w.field("rejected", s.rejected);
  w.field("served_ok", s.served_ok);
  w.field("timed_out", s.timed_out);
  w.field("not_found", s.not_found);
  w.field("failed", s.failed);
  w.field("invalid", s.invalid);
  w.field("retries", s.retries);
  w.field("degraded", s.degraded);
  w.field("latency_count", s.latency.count);
  w.field("latency_mean_ms", s.latency.mean_ms);
  w.field("latency_p50_ms", s.latency.percentile(50));
  w.field("latency_p95_ms", s.latency.percentile(95));
  w.field("latency_p99_ms", s.latency.percentile(99));
  w.field("latency_p999_ms", s.latency.percentile(99.9));
  w.field("registry_entries", static_cast<std::uint64_t>(s.registry.entries));
  w.field("registry_bytes",
          static_cast<std::uint64_t>(s.registry.resident_bytes));
  w.field("registry_hit_rate", s.registry.hit_rate());
  w.field("registry_evictions", s.registry.evictions);
  return w.str();
}

std::string render_metrics(const obs::MetricsRegistry::Snapshot& m) {
  JsonWriter w;
  for (const auto& c : m.counters) w.field(c.name, c.value);
  for (const auto& g : m.gauges) w.field(g.name, g.value);
  for (const auto& h : m.histograms) {
    w.field(h.name + ".count", h.snapshot.count);
    w.field(h.name + ".mean_ms", h.snapshot.mean_ms);
    w.field(h.name + ".p50_ms", h.snapshot.percentile(50));
    w.field(h.name + ".p95_ms", h.snapshot.percentile(95));
    w.field(h.name + ".p99_ms", h.snapshot.percentile(99));
    w.field(h.name + ".p999_ms", h.snapshot.percentile(99.9));
  }
  return w.str();
}

}  // namespace smpst::service
