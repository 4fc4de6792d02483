// The consumer half of the sharded ring topology: one collector thread
// draining every producer ring with batched dequeues and fanning the
// merged stream out to downstream sinks (rollups, the columnar writer,
// a LiveEngine).
//
// Why one thread: every downstream consumer then runs single-threaded —
// LiveEngine, TimeBucketRollup and ColumnarWriter need no locks, exactly
// like they don't when fed directly from a simulation thread. The
// collector is the only place in the pipeline where shards merge, and it
// merges by batch, so cross-shard interleaving is at batch granularity
// (downstream consumers must be order-insensitive across shards;
// per-shard order is preserved).
//
// The collector also runs *inline*: `DrainOnce()` on the caller's thread
// drains everything currently buffered. Deterministic tools (tests, the
// CLI's single-run mode) use inline mode; the background thread is for
// live ingest and the throughput bench.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/pipeline/ring.hpp"
#include "obs/trace.hpp"

namespace athena::obs::pipeline {

/// Collector-side counters. Written by whichever thread drains; read
/// after Stop() (or racily for progress displays).
struct CollectorStats {
  std::uint64_t events = 0;        ///< events delivered downstream
  std::uint64_t batches = 0;       ///< non-empty dequeue batches
  std::uint64_t idle_spins = 0;    ///< full sweeps that found every ring empty
  std::uint64_t max_batch = 0;     ///< largest single dequeue
  std::uint64_t busy_ns = 0;       ///< wall time spent fanning batches out to sinks
};

class Collector {
 public:
  struct Options {
    /// Per-ring slot count (rounded up to a power of two by SpscRing).
    std::size_t ring_capacity = 1 << 14;
    /// Max events per dequeue; also the fan-out batch size.
    std::size_t drain_batch = 512;
    /// Background-thread backoff once every ring is empty.
    std::chrono::microseconds idle_sleep{50};
  };

  Collector() : Collector(Options{}) {}
  explicit Collector(Options options);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Downstream consumers, invoked on the draining thread in
  /// registration order. Register everything before Start().
  void AddSink(TraceSink* sink);

  /// Creates a new ring shard and its producer sink. The returned sink
  /// is owned by the collector and valid for its lifetime; hand it to
  /// exactly one producer thread. Thread-safe (new producers may join a
  /// running collector — a ParallelRunner worker spinning up mid-sweep).
  [[nodiscard]] RingTraceSink* AddShard();

  /// Starts the background drain thread. Idempotent.
  void Start();

  /// Drains every ring until all are simultaneously empty, then stops
  /// the thread. Producers must have flushed (RingTraceSink::Flush) and
  /// gone quiet first. Also usable without Start() — inline mode.
  void Stop();

  /// Inline drain: one full sweep over all rings on the calling thread.
  /// Returns events delivered. Must not race a running background
  /// thread — it's either/or.
  std::size_t DrainOnce();

  [[nodiscard]] const CollectorStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t shard_count() const;

  /// Sum of the producer-side ledgers across all shards.
  [[nodiscard]] RingStats TotalRingStats() const;

  /// Publishes `pipeline.*` gauges (ingested events, per-tier ring
  /// sheds, high water, the collector's own busy time and ns/event —
  /// when that approaches the producers' inter-event gap, the collector
  /// is the bottleneck) into the calling thread's MetricsRegistry.
  void PublishMetrics() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity), sink(&ring) {}
    SpscRing ring;
    RingTraceSink sink;
  };

  /// One sweep over a stable snapshot of the shard list.
  std::size_t Sweep();

  Options options_;
  mutable std::mutex shards_mu_;  ///< guards shards_ growth only
  std::vector<std::unique_ptr<Shard>> shards_;

  std::vector<TraceSink*> sinks_;
  std::vector<TraceEvent> batch_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  CollectorStats stats_;
};

}  // namespace athena::obs::pipeline
