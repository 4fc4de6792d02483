#include "obs/pipeline/collector.hpp"

#include "obs/metrics.hpp"
#include "sim/wall_clock.hpp"

namespace athena::obs::pipeline {

Collector::Collector(Options options) : options_(options) {
  batch_.resize(options_.drain_batch);
}

Collector::~Collector() { Stop(); }

void Collector::AddSink(TraceSink* sink) {
  ATHENA_CHECK(!running_.load(std::memory_order_relaxed),
               "collector already running");
  if (sink != nullptr) sinks_.push_back(sink);
}

RingTraceSink* Collector::AddShard() {
  std::lock_guard<std::mutex> lock(shards_mu_);
  shards_.push_back(std::make_unique<Shard>(options_.ring_capacity));
  return &shards_.back()->sink;
}

std::size_t Collector::shard_count() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  return shards_.size();
}

RingStats Collector::TotalRingStats() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  RingStats total;
  for (const auto& s : shards_) {
    const RingStats& r = s->sink.stats();
    total.pushed += r.pushed;
    total.shed_low += r.shed_low;
    total.shed_critical += r.shed_critical;
    if (r.high_water > total.high_water) total.high_water = r.high_water;
  }
  return total;
}

std::size_t Collector::Sweep() {
  // Snapshot the shard count under the lock, then drain lock-free: the
  // vector only grows, and unique_ptr elements never move their Shard.
  std::size_t n;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    n = shards_.size();
  }
  std::size_t drained = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Shard* shard;
    {
      std::lock_guard<std::mutex> lock(shards_mu_);
      shard = shards_[i].get();
    }
    for (;;) {
      const std::size_t got = shard->ring.PopBatch(batch_.data(), batch_.size());
      if (got == 0) break;
      const auto fanout_start = sim::WallClock::now();
      for (TraceSink* s : sinks_) s->EmitBatch(batch_.data(), got);
      stats_.busy_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(sim::WallClock::now() -
                                                               fanout_start)
              .count());
      drained += got;
      ++stats_.batches;
      if (got > stats_.max_batch) stats_.max_batch = got;
      if (got < batch_.size()) break;  // ring momentarily empty
    }
  }
  stats_.events += drained;
  if (drained == 0) ++stats_.idle_spins;
  return drained;
}

std::size_t Collector::DrainOnce() {
  ATHENA_CHECK(!running_.load(std::memory_order_relaxed),
               "collector already running");
  return Sweep();
}

void Collector::Start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      if (Sweep() == 0) std::this_thread::sleep_for(options_.idle_sleep);
    }
    // Final drain: everything producers pushed before Stop() flipped the
    // flag is delivered before the thread exits.
    while (Sweep() > 0) {
    }
  });
}

void Collector::Stop() {
  if (running_.exchange(false)) {
    thread_.join();
  } else {
    // Inline mode: leave nothing buffered behind.
    while (Sweep() > 0) {
    }
  }
}

void Collector::PublishMetrics() const {
  if (!metrics_enabled()) return;
  const RingStats rings = TotalRingStats();
  SetGauge("pipeline.ingested", static_cast<double>(stats_.events));
  SetGauge("pipeline.batches", static_cast<double>(stats_.batches));
  SetGauge("pipeline.ring.shed_low", static_cast<double>(rings.shed_low));
  SetGauge("pipeline.ring.shed_critical", static_cast<double>(rings.shed_critical));
  SetGauge("pipeline.ring.high_water", static_cast<double>(rings.high_water));
  SetGauge("pipeline.shards", static_cast<double>(shard_count()));
  const auto busy_ns = static_cast<double>(stats_.busy_ns);
  SetGauge("pipeline.collector.busy_s", busy_ns / 1e9);
  SetGauge("pipeline.collector.ns_per_event",
           stats_.events > 0 ? busy_ns / static_cast<double>(stats_.events) : 0.0);
}

}  // namespace athena::obs::pipeline
