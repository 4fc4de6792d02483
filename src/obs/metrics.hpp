// The metrics half of the observability subsystem: a registry of named
// counters, gauges, streaming stats (Welford) and histograms that
// components publish into, snapshotted on a periodic virtual-time grid
// and exportable to CSV (long form: one row per sample) and Prometheus
// text (obs/prom_text.hpp).
//
// Like tracing (obs/trace.hpp), metrics are off by default: a per-thread
// registry pointer, null unless a tool installs one, and inline helpers
// that cost one branch when disabled.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/running_stats.hpp"

namespace athena::obs {

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique instance id. CachedCounter uses it to detect that a
  /// registry at a recycled address is not the one it resolved against.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Find-or-create. References remain valid for the registry's lifetime
  /// (node-based map), so hot components may cache them.
  [[nodiscard]] std::uint64_t& Counter(std::string_view name);
  [[nodiscard]] double& Gauge(std::string_view name);
  [[nodiscard]] stats::RunningStats& Stats(std::string_view name);
  /// Histogram bounds are fixed on first registration; later calls with
  /// the same name return the existing histogram unchanged.
  [[nodiscard]] stats::Histogram& Histogram(std::string_view name, double lo, double hi,
                                            std::size_t bins);

  [[nodiscard]] bool HasCounter(std::string_view name) const;
  [[nodiscard]] std::uint64_t CounterValue(std::string_view name) const;
  [[nodiscard]] double GaugeValue(std::string_view name) const;

  // Read-only iteration over everything registered (exporters: the CSV
  // writer below, the Prometheus exposition in obs/prom_text.hpp).
  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, stats::RunningStats, std::less<>>& stats() const {
    return stats_;
  }
  [[nodiscard]] const std::map<std::string, stats::Histogram, std::less<>>& histograms()
      const {
    return histograms_;
  }

  /// Appends one sample row per counter and gauge at virtual time `t`.
  void Snapshot(sim::TimePoint t);

  /// Snapshots every `period` of virtual time (aligned to the call time).
  void StartSampling(sim::Simulator& sim, sim::Duration period);
  void StopSampling();

  /// Long-form CSV of all snapshots: `t_us,t_ms,metric,value`.
  void WriteCsv(std::ostream& os) const;

  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }

 private:
  struct Sample {
    sim::TimePoint t;
    const std::string* metric = nullptr;  ///< points into the owning map's key
    double value = 0.0;
  };

  std::uint64_t epoch_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, stats::RunningStats, std::less<>> stats_;
  std::map<std::string, stats::Histogram, std::less<>> histograms_;
  std::vector<Sample> samples_;
  std::unique_ptr<sim::PeriodicTimer> sampling_timer_;
};

namespace detail {
/// Thread-local for the same reason as the trace sink (obs/trace.hpp):
/// concurrent sweep runs each install their own registry on their worker
/// thread and never contend or cross-pollinate.
inline thread_local MetricsRegistry* g_metrics = nullptr;
}  // namespace detail

[[nodiscard]] inline MetricsRegistry* metrics() { return detail::g_metrics; }
[[nodiscard]] inline bool metrics_enabled() { return detail::g_metrics != nullptr; }

inline MetricsRegistry* set_metrics(MetricsRegistry* registry) {
  MetricsRegistry* prev = detail::g_metrics;
  detail::g_metrics = registry;
  return prev;
}

/// Increment a counter in the installed registry (no-op when disabled).
inline void CountInc(std::string_view name, std::uint64_t n = 1) {
  if (MetricsRegistry* m = detail::g_metrics) m->Counter(name) += n;
}

/// Per-thread memoized resolution of one hot counter: after the first
/// increment against a given registry, each Inc is a pointer/epoch check
/// plus an add — no map lookup. Declare at the callsite as
///
///   static thread_local obs::CachedCounter counter{"net.captured"};
///   counter.Inc();
///
/// `thread_local` (not plain `static`) is required: under
/// sim::ParallelRunner each worker thread has its own installed registry,
/// and the cache must follow it. The epoch check catches a new registry
/// allocated at a recycled address.
class CachedCounter {
 public:
  explicit CachedCounter(const char* name) : name_(name) {}

  void Inc(std::uint64_t n = 1) {
    MetricsRegistry* m = detail::g_metrics;
    if (m == nullptr) return;
    if (m != registry_ || m->epoch() != epoch_) {
      registry_ = m;
      epoch_ = m->epoch();
      value_ = &m->Counter(name_);
    }
    *value_ += n;
  }

 private:
  const char* name_;
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint64_t* value_ = nullptr;
};

/// Set a gauge in the installed registry (no-op when disabled).
inline void SetGauge(std::string_view name, double value) {
  if (MetricsRegistry* m = detail::g_metrics) m->Gauge(name) = value;
}

/// Feed a sample into a named RunningStats (no-op when disabled).
inline void Observe(std::string_view name, double value) {
  if (MetricsRegistry* m = detail::g_metrics) m->Stats(name).Add(value);
}

/// RAII installation of a registry, mirroring ScopedTraceSink.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry) : prev_(set_metrics(registry)) {}
  ~ScopedMetrics() { set_metrics(prev_); }

  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace athena::obs
