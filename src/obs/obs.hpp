// One-stop observability bundle.
//
// `SimObsBridge` implements the kernel's `sim::SimHooks`, translating
// kernel activity into trace events (a `sim.run` span per Run* call, a
// sampled `sim.queue_depth` counter) and metrics gauges. It lives here —
// not in src/sim/ — so the kernel stays dependency-free.
//
// `ObsSession` is what tools use: it owns a TraceRecorder and a
// MetricsRegistry, installs both globals for its lifetime (RAII), hooks
// the simulator, and optionally snapshots metrics on a virtual-time grid.
//
//   obs::ObsSession observability{sim, {.metrics_period = 100ms}};
//   ... run the scenario ...
//   observability.recorder().WriteJson(trace_file);
//   observability.registry().WriteCsv(metrics_file);
#pragma once

#include <cstdint>
#include <memory>

#include "obs/live/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace athena::obs {

/// Kernel → obs adapter. Install with `sim.AddHooks(&bridge)`.
class SimObsBridge final : public sim::SimHooks {
 public:
  /// `queue_sample_every`: emit the queue-depth trace counter every N
  /// executed events (bounds trace volume; 0 disables the counter).
  explicit SimObsBridge(sim::Simulator& sim, std::uint64_t queue_sample_every = 64)
      : sim_(sim), queue_sample_every_(queue_sample_every) {}

  void OnEventExecuted(sim::TimePoint t, std::size_t queue_depth) override {
    if (queue_sample_every_ == 0) return;
    if (++events_since_sample_ < queue_sample_every_) return;
    events_since_sample_ = 0;
    TraceCounter(Layer::kSim, names::kSimQueueDepth, t, static_cast<double>(queue_depth));
  }

  void OnRunCompleted(sim::TimePoint begin, sim::TimePoint end,
                      std::uint64_t events) override {
    TraceSpan(Layer::kSim, names::kSimRun, begin, end,
              {{"events", static_cast<double>(events)}});
    SetGauge("sim.events_executed", static_cast<double>(sim_.events_executed()));
    SetGauge("sim.queue_depth", static_cast<double>(sim_.queue_depth()));
    if (sim_.profiling()) {
      const sim::SimProfile& p = sim_.profile();
      SetGauge("sim.queue_high_water", static_cast<double>(p.queue_high_water));
      SetGauge("sim.events_per_sec_wall", p.events_per_second());
      SetGauge("sim.mean_callback_ns", p.mean_callback_ns());
    }
  }

 private:
  sim::Simulator& sim_;
  std::uint64_t queue_sample_every_;
  std::uint64_t events_since_sample_ = 0;
};

/// Owns recorder + registry, installs the globals and the kernel hooks
/// for its lifetime. Everything is undone in the destructor, so tests
/// and tools cannot leak observability state into each other.
class ObsSession {
 public:
  struct Options {
    bool trace = true;
    bool metrics = true;
    /// 0 = no periodic snapshots (metrics still collect final values).
    sim::Duration metrics_period{0};
    bool profile_sim = false;
    std::uint64_t queue_sample_every = 64;
    /// Run the live diagnosis engine (obs/live/) alongside the recorder;
    /// both consume the same emit points through a TraceFanout.
    bool live = false;
    live::LiveEngine::Options live_options{};
    /// An additional sink fanned out alongside the recorder/live engine
    /// — how a run joins the telemetry ingest pipeline (pass
    /// pipeline::TelemetryPipeline::CurrentThreadSink()). Null is fine.
    TraceSink* extra_sink = nullptr;
  };

  ObsSession(sim::Simulator& sim, Options options)
      : sim_(sim),
        options_(options),
        bridge_(sim, options.queue_sample_every),
        live_(options.live ? std::make_unique<live::LiveEngine>(options.live_options)
                           : nullptr),
        trace_scope_(PickSink()),
        metrics_scope_(options.metrics ? &registry_ : nullptr) {
    sim.AddHooks(&bridge_);
    if (options.profile_sim) sim.set_profiling(true);
    if (options.metrics && options.metrics_period.count() > 0) {
      registry_.StartSampling(sim, options.metrics_period);
    }
  }

  ~ObsSession() {
    registry_.StopSampling();
    if (options_.profile_sim) sim_.set_profiling(false);
    sim_.RemoveHooks(&bridge_);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] TraceRecorder& recorder() { return recorder_; }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }

  /// Null unless Options::live was set.
  [[nodiscard]] live::LiveEngine* live() { return live_.get(); }
  [[nodiscard]] const live::LiveEngine* live() const { return live_.get(); }

 private:
  /// Called after live_ is constructed (declaration order) to decide the
  /// installed global sink: recorder, live engine, extra sink, or a
  /// fanout of whichever subset is active.
  [[nodiscard]] TraceSink* PickSink() {
    TraceSink* singles[3] = {};
    std::size_t n = 0;
    if (options_.trace) singles[n++] = &recorder_;
    if (live_ != nullptr) singles[n++] = live_.get();
    if (options_.extra_sink != nullptr) singles[n++] = options_.extra_sink;
    if (n == 0) return nullptr;
    if (n == 1) return singles[0];
    for (std::size_t i = 0; i < n; ++i) fanout_.Add(singles[i]);
    return &fanout_;
  }

  sim::Simulator& sim_;
  Options options_;
  TraceRecorder recorder_;
  MetricsRegistry registry_;
  SimObsBridge bridge_;
  std::unique_ptr<live::LiveEngine> live_;
  TraceFanout fanout_;
  ScopedTraceSink trace_scope_;
  ScopedMetrics metrics_scope_;
};

}  // namespace athena::obs
