#include "obs/fleet/report.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/live/anomaly.hpp"
#include "obs/trace_json.hpp"

namespace athena::obs::fleet {

namespace {

// Doubles render in the shortest round-trip form: equal doubles give
// equal bytes, the property the byte-identity contract rests on.
using jsonio::ShortestNumber;
using jsonio::WriteString;

void WriteMetric(std::ostream& os, const MetricReport& m) {
  os << "{\"count\":" << m.count << ",\"mean\":" << ShortestNumber(m.mean)
     << ",\"min\":" << ShortestNumber(m.min) << ",\"max\":" << ShortestNumber(m.max)
     << ",\"quantiles\":[";
  for (std::size_t i = 0; i < m.quantiles.size(); ++i) {
    if (i != 0) os << ',';
    os << ShortestNumber(m.quantiles[i]);
  }
  os << "]}";
}

void WriteScenario(std::ostream& os, const ScenarioReport& s) {
  os << "{\"sessions\":" << s.sessions
     << ",\"invalid_sessions\":" << s.invalid_sessions
     << ",\"degraded_sessions\":" << s.degraded_sessions
     << ",\"anomalies_total\":" << s.anomalies_total << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : s.metrics) {
    if (!first) os << ',';
    first = false;
    WriteString(os, name);
    os << ':';
    WriteMetric(os, metric);
  }
  os << "},\"prevalence\":{";
  first = true;
  for (const auto& [slug, count] : s.prevalence) {
    if (!first) os << ',';
    first = false;
    WriteString(os, slug);
    os << ':' << count;
  }
  os << "}}";
}

void WriteSlo(std::ostream& os, const SloReport& r) {
  os << "{\"name\":";
  WriteString(os, r.spec.name);
  os << ",\"metric\":";
  WriteString(os, ToString(r.spec.metric));
  os << ",\"granularity\":"
     << (r.spec.granularity == Granularity::kSample ? "\"sample\"" : "\"session\"")
     << ",\"threshold\":" << ShortestNumber(r.spec.threshold)
     << ",\"target\":" << ShortestNumber(r.spec.target)
     << ",\"window\":" << r.spec.window << ",\"good\":" << ShortestNumber(r.good)
     << ",\"total\":" << ShortestNumber(r.total)
     << ",\"compliance\":" << ShortestNumber(r.compliance)
     << ",\"window_compliance\":" << ShortestNumber(r.window_compliance)
     << ",\"budget_remaining\":" << ShortestNumber(r.budget_remaining)
     << ",\"burn_rate\":" << ShortestNumber(r.burn_rate)
     << ",\"ok\":" << (r.ok ? "true" : "false") << "}";
}

ScenarioReport SnapshotScenario(const ScenarioAggregate& a) {
  ScenarioReport s;
  s.sessions = a.sessions;
  s.invalid_sessions = a.invalid_sessions;
  s.degraded_sessions = a.degraded_sessions;
  s.anomalies_total = a.anomalies_total;
  for (std::size_t i = 0; i < kFleetMetricCount; ++i) {
    const auto& bucket = a.metrics[i];
    if (bucket.count == 0) continue;  // absent metrics stay out of the report
    MetricReport m;
    m.count = bucket.count;
    m.mean = bucket.sum / static_cast<double>(bucket.count);
    m.min = bucket.min;
    m.max = bucket.max;
    m.quantiles.reserve(kReportQuantilePoints);
    for (std::size_t q = 0; q < kReportQuantilePoints; ++q) {
      m.quantiles.push_back(bucket.sketch.Quantile(
          static_cast<double>(q) / static_cast<double>(kReportQuantilePoints - 1)));
    }
    s.metrics.emplace(ToString(static_cast<FleetMetric>(i)), std::move(m));
  }
  for (std::size_t k = 0; k < obs::live::kAnomalyKindCount; ++k) {
    s.prevalence.emplace(obs::live::SlugFor(static_cast<obs::live::AnomalyKind>(k)),
                         a.prevalence[k]);
  }
  return s;
}

// --- minimal JSON reader (baseline side of the gate; no external deps) ---

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  Json Parse() {
    Json v = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw std::runtime_error("fleet report JSON, offset " + std::to_string(pos_) +
                             ": " + why);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    SkipWs();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  Json ParseValue() {
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.str = ParseString();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.type = Json::Type::kBool;
        if (Consume("true")) {
          v.boolean = true;
        } else if (Consume("false")) {
          v.boolean = false;
        } else {
          Fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!Consume("null")) Fail("bad literal");
        return Json{};
      }
      default: return ParseNumber();
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': out += ParseAsciiEscape(); break;
          default: Fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
  }

  /// The four hex digits after `\u`: the shared escaper writes control
  /// characters as `\u00XX` and every byte from 0x80 up raw, so a code
  /// point past 0x7F never comes from WriteJson and is rejected.
  char ParseAsciiEscape() {
    if (text_.size() - pos_ < 4) Fail("truncated \\u escape");
    unsigned code = 0;
    const char* digits = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(digits, digits + 4, code, 16);
    if (ec != std::errc{} || end != digits + 4) Fail("bad \\u escape");
    if (code > 0x7F) Fail("unsupported non-ASCII \\u escape");
    pos_ += 4;
    return static_cast<char>(code);
  }

  Json ParseNumber() {
    SkipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) Fail("expected a value");
    Json v;
    v.type = Json::Type::kNumber;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v.number);
    if (ec != std::errc{} || end != text_.data() + pos_) Fail("bad number");
    return v;
  }

  Json ParseArray() {
    Expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  Json ParseObject() {
    Expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWs();
      std::string key = ParseString();
      Expect(':');
      v.object.emplace(std::move(key), ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

const Json& Field(const Json& obj, const std::string& key) {
  if (obj.type != Json::Type::kObject) {
    throw std::runtime_error("fleet report JSON: expected object around \"" + key + "\"");
  }
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    throw std::runtime_error("fleet report JSON: missing field \"" + key + "\"");
  }
  return it->second;
}

double Num(const Json& obj, const std::string& key) {
  const Json& v = Field(obj, key);
  if (v.type != Json::Type::kNumber) {
    throw std::runtime_error("fleet report JSON: field \"" + key + "\" is not a number");
  }
  return v.number;
}

std::uint64_t UInt(const Json& obj, const std::string& key) {
  return static_cast<std::uint64_t>(Num(obj, key));
}

std::string Str(const Json& obj, const std::string& key) {
  const Json& v = Field(obj, key);
  if (v.type != Json::Type::kString) {
    throw std::runtime_error("fleet report JSON: field \"" + key + "\" is not a string");
  }
  return v.str;
}

MetricReport ReadMetric(const Json& j) {
  MetricReport m;
  m.count = UInt(j, "count");
  m.mean = Num(j, "mean");
  m.min = Num(j, "min");
  m.max = Num(j, "max");
  const Json& grid = Field(j, "quantiles");
  if (grid.type != Json::Type::kArray) {
    throw std::runtime_error("fleet report JSON: \"quantiles\" is not an array");
  }
  for (const Json& q : grid.array) {
    if (q.type != Json::Type::kNumber) {
      throw std::runtime_error("fleet report JSON: non-numeric quantile");
    }
    m.quantiles.push_back(q.number);
  }
  return m;
}

ScenarioReport ReadScenario(const Json& j) {
  ScenarioReport s;
  s.sessions = UInt(j, "sessions");
  s.invalid_sessions = UInt(j, "invalid_sessions");
  s.degraded_sessions = UInt(j, "degraded_sessions");
  s.anomalies_total = UInt(j, "anomalies_total");
  for (const auto& [name, metric] : Field(j, "metrics").object) {
    s.metrics.emplace(name, ReadMetric(metric));
  }
  for (const auto& [slug, count] : Field(j, "prevalence").object) {
    if (count.type != Json::Type::kNumber) {
      throw std::runtime_error("fleet report JSON: non-numeric prevalence");
    }
    s.prevalence.emplace(slug, static_cast<std::uint64_t>(count.number));
  }
  return s;
}

SloReport ReadSlo(const Json& j) {
  SloReport r;
  r.spec.name = Str(j, "name");
  const std::string metric = Str(j, "metric");
  const auto m = MetricFromName(metric);
  if (!m) throw std::runtime_error("fleet report JSON: unknown SLO metric \"" + metric + "\"");
  r.spec.metric = *m;
  r.spec.granularity =
      Str(j, "granularity") == "session" ? Granularity::kSession : Granularity::kSample;
  r.spec.threshold = Num(j, "threshold");
  r.spec.target = Num(j, "target");
  r.spec.window = static_cast<std::uint32_t>(Num(j, "window"));
  r.good = Num(j, "good");
  r.total = Num(j, "total");
  r.compliance = Num(j, "compliance");
  r.window_compliance = Num(j, "window_compliance");
  r.budget_remaining = Num(j, "budget_remaining");
  r.burn_rate = Num(j, "burn_rate");
  const Json& ok = Field(j, "ok");
  if (ok.type != Json::Type::kBool) {
    throw std::runtime_error("fleet report JSON: SLO \"ok\" is not a bool");
  }
  r.ok = ok.boolean;
  return r;
}

}  // namespace

stats::Cdf MetricReport::ToCdf() const {
  return count == 0 ? stats::Cdf{} : stats::Cdf{quantiles};
}

FleetReport BuildReport(const FleetAggregator& aggregator, const SloEngine& slos) {
  FleetReport report;
  report.sessions = aggregator.sessions();
  report.fleet = SnapshotScenario(aggregator.fleet());
  for (const auto& [name, aggregate] : aggregator.scenarios()) {
    report.scenarios.emplace(name, SnapshotScenario(aggregate));
  }
  for (const SloResult& r : slos.Results()) {
    SloReport entry;
    entry.spec = r.spec;
    entry.good = r.good;
    entry.total = r.total;
    entry.compliance = r.compliance;
    entry.window_compliance = r.window_compliance;
    entry.budget_remaining = r.budget_remaining;
    entry.burn_rate = r.burn_rate;
    entry.ok = r.ok();
    report.slos.push_back(std::move(entry));
  }
  return report;
}

void WriteJson(const FleetReport& report, std::ostream& os) {
  os << "{\"sessions\":" << report.sessions << ",\"fleet\":";
  WriteScenario(os, report.fleet);
  os << ",\"scenarios\":{";
  bool first = true;
  for (const auto& [name, scenario] : report.scenarios) {
    if (!first) os << ',';
    first = false;
    WriteString(os, name);
    os << ':';
    WriteScenario(os, scenario);
  }
  os << "},\"slos\":[";
  first = true;
  for (const SloReport& slo : report.slos) {
    if (!first) os << ',';
    first = false;
    WriteSlo(os, slo);
  }
  os << "]}\n";
}

FleetReport ParseReport(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json root = JsonParser{buf.str()}.Parse();

  FleetReport report;
  report.sessions = UInt(root, "sessions");
  report.fleet = ReadScenario(Field(root, "fleet"));
  for (const auto& [name, scenario] : Field(root, "scenarios").object) {
    report.scenarios.emplace(name, ReadScenario(scenario));
  }
  const Json& slos = Field(root, "slos");
  if (slos.type != Json::Type::kArray) {
    throw std::runtime_error("fleet report JSON: \"slos\" is not an array");
  }
  for (const Json& slo : slos.array) report.slos.push_back(ReadSlo(slo));
  return report;
}

GateResult GateAgainstBaseline(const FleetReport& current,
                               const FleetReport& baseline,
                               const GateOptions& options) {
  GateResult result;
  const auto fail = [&result](std::string why) {
    result.ok = false;
    result.failures.push_back(std::move(why));
  };

  // 1. Every baseline fleet metric must still exist and be stochastically
  //    no worse. Lower-is-better normalization makes one direction enough.
  for (const auto& [name, base] : baseline.fleet.metrics) {
    if (base.count == 0) continue;
    const auto it = current.fleet.metrics.find(name);
    if (it == current.fleet.metrics.end() || it->second.count == 0) {
      fail("metric " + name + ": present in baseline but absent from candidate");
      continue;
    }
    const stats::Cdf cur = it->second.ToCdf();
    const stats::Cdf ref = base.ToCdf();
    if (!stats::StochasticallyBelow(cur, ref, options.slack)) {
      std::ostringstream why;
      why << "metric " << name << ": candidate CDF regressed (p95 "
          << ShortestNumber(it->second.quantiles.empty() ? 0.0 : cur.P(95.0))
          << " vs baseline " << ShortestNumber(ref.P(95.0)) << ", slack "
          << ShortestNumber(options.slack) << ")";
      fail(why.str());
    }
  }

  // 2. Anomaly prevalence must not grow beyond slack.
  for (const auto& [slug, base_count] : baseline.fleet.prevalence) {
    if (!options.compare_prevalence) break;
    const auto it = current.fleet.prevalence.find(slug);
    if (it == current.fleet.prevalence.end()) continue;
    const double base_frac =
        baseline.fleet.sessions == 0
            ? 0.0
            : static_cast<double>(base_count) / static_cast<double>(baseline.fleet.sessions);
    const double cur_frac =
        current.fleet.sessions == 0
            ? 0.0
            : static_cast<double>(it->second) / static_cast<double>(current.fleet.sessions);
    if (cur_frac > base_frac + options.slack) {
      std::ostringstream why;
      why << "prevalence " << slug << ": " << ShortestNumber(cur_frac)
          << " of sessions vs baseline " << ShortestNumber(base_frac);
      fail(why.str());
    }
  }

  // 3. Every candidate SLO must meet its target.
  for (const SloReport& slo : current.slos) {
    if (!slo.ok) {
      std::ostringstream why;
      why << "slo " << slo.spec.name << ": compliance " << ShortestNumber(slo.compliance)
          << " below target " << ShortestNumber(slo.spec.target) << " (budget remaining "
          << ShortestNumber(slo.budget_remaining) << ")";
      fail(why.str());
    }
  }
  return result;
}

}  // namespace athena::obs::fleet
