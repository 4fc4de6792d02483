#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <unordered_map>

#include "obs/trace_json.hpp"

namespace athena::obs {

const char* ToString(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kNet: return "net";
    case Layer::kRan: return "ran";
    case Layer::kCc: return "cc";
    case Layer::kApp: return "app";
    case Layer::kMedia: return "media";
    case Layer::kCore: return "core";
    case Layer::kOther: return "other";
  }
  return "?";
}

namespace jsonio {

/// Human-readable track titles for the Perfetto sidebar.
const char* TrackTitle(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim — event kernel";
    case Layer::kNet: return "net — links & captures";
    case Layer::kRan: return "ran — 5G uplink slots/HARQ";
    case Layer::kCc: return "cc — congestion control";
    case Layer::kApp: return "app — endpoints";
    case Layer::kMedia: return "media — frames & jitter buffer";
    case Layer::kCore: return "core — correlated packet stories";
    case Layer::kOther: return "other";
  }
  return "?";
}

void WriteString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::ostream& operator<<(std::ostream& os, Number n) {
  const double v = n.v;
  // JSON has no NaN/Inf; clamp to null-ish zero rather than emit garbage.
  if (!std::isfinite(v)) return os << 0;
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && std::abs(v) < 1e15) {
    return os << static_cast<std::int64_t>(v);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return os << buf;
}

std::string ShortestNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

/// One Chrome trace-event JSON object (no surrounding comma/newline).
void WriteEventJson(std::ostream& os, const TraceEvent& e, const std::string& name) {
  const auto tid = static_cast<std::size_t>(e.layer) + 1;
  os << "{\"name\":";
  WriteString(os, name);
  os << ",\"cat\":\"" << ToString(e.layer) << "\",\"ph\":\""
     << static_cast<char>(e.phase) << "\",\"pid\":1,\"tid\":" << tid
     << ",\"ts\":" << e.ts.us();
  switch (e.phase) {
    case TraceEvent::Phase::kComplete:
      os << ",\"dur\":" << e.dur.count();
      break;
    case TraceEvent::Phase::kAsyncBegin:
    case TraceEvent::Phase::kAsyncEnd:
      os << ",\"id\":\"0x" << std::hex << e.id << std::dec << "\"";
      break;
    case TraceEvent::Phase::kInstant:
      os << ",\"s\":\"t\"";  // thread-scoped instant
      break;
    case TraceEvent::Phase::kCounter:
      break;
  }
  if (e.arg_count > 0) {
    os << ",\"args\":{";
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      if (i > 0) os << ",";
      WriteString(os, e.args[i].key);
      os << ":" << Number{e.args[i].value};
    }
    os << "}";
  }
  os << "}";
}

void WriteTraceHeader(std::ostream& os, const bool layer_used[kLayerCount]) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"athena\"}}";
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (!layer_used[i]) continue;
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i + 1
       << ",\"args\":{\"name\":";
    WriteString(os, TrackTitle(static_cast<Layer>(i)));
    os << "}}";
  }
}

const std::string& NameCache::Resolve(NameId id) {
  auto [it, inserted] = cache_.try_emplace(id);
  if (inserted) it->second = TraceNameRegistry::Instance().NameOf(id);
  return it->second;
}

}  // namespace jsonio

std::size_t TraceRecorder::CountLayer(Layer layer) const {
  std::size_t n = 0;
  ForEach([&](const TraceEvent& e) {
    if (e.layer == layer) ++n;
  });
  return n;
}

void TraceRecorder::WriteJson(std::ostream& os) const {
  // Stable sort by timestamp: chrome://tracing requires ascending ts, and
  // async pairs emitted at completion time land back where they began.
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(size_);
  bool layer_used[kLayerCount] = {};
  ForEach([&](const TraceEvent& e) {
    sorted.push_back(&e);
    layer_used[static_cast<std::size_t>(e.layer)] = true;
  });
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->ts < b->ts; });

  jsonio::NameCache names;
  jsonio::WriteTraceHeader(os, layer_used);
  for (const TraceEvent* ep : sorted) {
    os << ",\n";
    jsonio::WriteEventJson(os, *ep, names.Resolve(ep->name));
  }
  os << "\n]}\n";
}

}  // namespace athena::obs
