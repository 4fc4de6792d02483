// The one JSON encoder: every JSON file Athena writes — the Chrome trace
// (TraceRecorder::WriteJson and the chunked Perfetto emitter in
// obs/pipeline/export.hpp), the anomaly JSONL (obs/live/anomaly.hpp), the
// rollup JSON, the FleetReport (obs/fleet/report.hpp) and the chaos
// matrix JSON (fault/chaos.hpp) — escapes strings and formats numbers
// here, so no writer can emit a control character raw or a NaN token.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/trace.hpp"

namespace athena::obs::jsonio {

/// `s` as a JSON string literal: `"` and `\` are escaped, newline and
/// tab become `\n` / `\t`, every other control character `\u00XX`.
void WriteString(std::ostream& os, std::string_view s);

/// `os << Number{v}` writes a compact JSON number: integers exactly,
/// other values with six significant digits (`%.6g`); non-finite values
/// clamp to 0.
struct Number {
  double v;
};
std::ostream& operator<<(std::ostream& os, Number n);

/// Shortest decimal text that parses back to exactly `v` (std::to_chars):
/// equal doubles give equal bytes, the property the FleetReport's
/// byte-identity contract rests on. Non-finite values render as 0.
[[nodiscard]] std::string ShortestNumber(double v);

/// One trace-event object for `e` (no surrounding comma/newline); `name`
/// is the resolved text of `e.name`.
void WriteEventJson(std::ostream& os, const TraceEvent& e, const std::string& name);

/// Document preamble: `{"traceEvents":[` plus process/track metadata for
/// every layer flagged in `layer_used`.
void WriteTraceHeader(std::ostream& os, const bool layer_used[kLayerCount]);

/// Resolves each distinct interned id once per export, not per event.
class NameCache {
 public:
  const std::string& Resolve(NameId id);

 private:
  std::unordered_map<NameId, std::string> cache_;
};

}  // namespace athena::obs::jsonio
