// The output schema of the live diagnosis engine (obs/live/): typed
// anomaly verdicts with layer attribution, and the bounded event log
// that keeps the most recent of them.
//
// An `AnomalyEvent` is one *verdict*: "between window_begin and
// window_end, the evidence says artifact X happened at layer Y, with
// confidence C". The five kinds mirror the paper's wireless delay
// artifacts (§3): slot-grid delay-spread quantization, HARQ
// retransmission inflation, BSR grant-wait, over-granting, and
// cross-traffic queue buildup.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace athena::obs::live {

/// One anomaly class per paper artifact. Keep ToString/SlugFor in
/// anomaly.cpp in sync when extending.
enum class AnomalyKind : std::uint8_t {
  kDelaySpreadQuantization,  ///< core arrivals concentrated on the UL slot grid (§2, Fig. 5)
  kHarqRtxInflation,         ///< OWD steps explained by HARQ retransmission rounds (§3.2)
  kBsrGrantWait,             ///< bursts wait ~a BSR RTT for their first serving grant (§3.1)
  kOverGranting,             ///< requested grants sized from stale BSRs go unused (§3.1)
  kQueueBuildup,             ///< RLC backlog never drains: capacity contention (§2)
  kTelemetryGap,             ///< the PHY telemetry feed lost records while traffic flowed
  kOverload,                 ///< the overload governor is shedding telemetry load
};
inline constexpr std::size_t kAnomalyKindCount = 7;

/// Human-readable name, e.g. "HARQ retransmission inflation".
[[nodiscard]] const char* ToString(AnomalyKind kind);

/// Prometheus-label-safe slug, e.g. "harq_rtx_inflation".
[[nodiscard]] const char* SlugFor(AnomalyKind kind);

/// A numeric evidence key/value. Keys must be string literals.
using Evidence = TraceArg;

struct AnomalyEvent {
  AnomalyKind kind = AnomalyKind::kDelaySpreadQuantization;
  Layer layer = Layer::kOther;       ///< attributed layer
  sim::TimePoint window_begin;       ///< evidence window
  sim::TimePoint window_end;
  double confidence = 0.0;           ///< 0..1
  const char* detector = "";         ///< emitting detector's name (literal)
  std::string message;               ///< one-line human description
  std::array<Evidence, 6> evidence{};
  std::size_t evidence_count = 0;

  void AddEvidence(const char* key, double value) {
    if (evidence_count < evidence.size()) evidence[evidence_count++] = {key, value};
  }
};

/// Serializes one anomaly as a single JSON object (one JSONL line,
/// without the trailing newline).
void WriteJson(std::ostream& os, const AnomalyEvent& event);

/// Bounded event log: a ring buffer of the most recent anomaly verdicts,
/// the session's "what happened" stream (athena_cli --anomalies writes
/// it as JSONL).
class EventLog {
 public:
  /// `capacity` bounds the ring; the oldest anomalies are overwritten
  /// once it fills (dropped_count() tracks how many).
  explicit EventLog(std::size_t capacity = 1024);

  void PushAnomaly(const AnomalyEvent& event);

  /// Anomalies currently buffered, oldest first.
  [[nodiscard]] std::vector<const AnomalyEvent*> Ordered() const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t dropped_count() const {
    return pushed_ - static_cast<std::uint64_t>(size_);
  }

  /// All buffered anomalies as JSONL, oldest first.
  void WriteJsonl(std::ostream& os) const;

 private:
  std::vector<AnomalyEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace athena::obs::live
