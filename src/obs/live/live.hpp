// The live diagnosis engine: a TraceSink that decodes the instrumentation
// stream (the exact emit points PR 1 placed in net/ran/cc/app/media/core)
// into typed observations, feeds the DetectorBank, and files every
// anomaly into the bounded EventLog.
//
// Because it is *just another trace sink*, the engine composes with the
// TraceRecorder through obs::TraceFanout: the same emit call lands in
// the Perfetto buffer and in the detectors, and disabling both restores
// the null-sink fast path untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/live/anomaly.hpp"
#include "obs/live/detectors.hpp"
#include "obs/trace.hpp"

namespace athena::obs::live {

class LiveEngine final : public TraceSink {
 public:
  struct Options {
    DetectorConfig detectors{};
    std::size_t log_capacity = 1024;
  };

  LiveEngine() : LiveEngine(Options{}) {}
  explicit LiveEngine(Options options);

  // --- TraceSink: decode and route ---
  void Emit(const TraceEvent& event) override;

  /// Forwards every anomaly verdict (after it is filed into the event
  /// log) to an online consumer — the mitigation control plane's trigger
  /// feed. Single slot; replaces any previous listener.
  void set_anomaly_listener(std::function<void(const AnomalyEvent&)> listener) {
    anomaly_listener_ = std::move(listener);
  }

  [[nodiscard]] DetectorBank& bank() { return bank_; }
  [[nodiscard]] const DetectorBank& bank() const { return bank_; }
  [[nodiscard]] EventLog& log() { return log_; }
  [[nodiscard]] const EventLog& log() const { return log_; }

  // --- session rollups the HealthReport draws on ---
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t frames_rendered() const { return frames_rendered_; }
  [[nodiscard]] std::uint64_t frames_late() const { return frames_late_; }
  [[nodiscard]] std::uint64_t overuse_events() const { return overuse_events_; }
  [[nodiscard]] std::uint64_t link_drops() const { return link_drops_; }
  /// Post-hoc corroboration: counts of the correlator's per-packet
  /// primary causes (decoded from `pkt.uplink` spans when Correlate runs
  /// inside the session scope). Indexed by core::RootCause's value.
  [[nodiscard]] const std::array<std::uint64_t, 8>& core_cause_counts() const {
    return core_causes_;
  }

 private:
  void OnSpan(const TraceEvent& begin, const TraceEvent& end);

  DetectorBank bank_;
  EventLog log_;
  std::function<void(const AnomalyEvent&)> anomaly_listener_;

  // TraceAsyncSpan always emits its begin/end pair back-to-back from one
  // call, so a single pending slot suffices to rejoin them.
  TraceEvent pending_begin_;
  bool have_pending_ = false;

  std::uint64_t deliveries_ = 0;
  std::uint64_t frames_rendered_ = 0;
  std::uint64_t frames_late_ = 0;
  std::uint64_t overuse_events_ = 0;
  std::uint64_t link_drops_ = 0;
  std::array<std::uint64_t, 8> core_causes_{};
};

}  // namespace athena::obs::live
