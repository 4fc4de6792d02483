// Lock-free single-producer/single-consumer event ring — the ingest
// pipeline's shard primitive.
//
// Topology (see docs/ARCHITECTURE.md § Telemetry pipeline): one ring per
// producer thread (a sim::ParallelRunner worker or a live session), one
// collector thread draining all rings. SPSC keeps both sides wait-free:
// the producer owns `tail`, the consumer owns `head`, and each caches the
// other's index so the common push/pop touches no shared cache line at
// all — an atomic load of the peer index happens only when the cached
// copy says the ring looks full/empty.
//
// Backpressure is explicit, never blocking: when a ring is full the
// producer sheds the event and counts it (split by CriticalTraceEvent
// priority — tier 1 of the shed tiers, ahead of the resilience/
// governor's) rather than stalling the simulation. Lossy-but-accounted
// is the fleet contract, and this ring is the one place that sheds
// trace events: every sink downstream keeps what it is handed.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "obs/trace.hpp"
#include "sim/check.hpp"

namespace athena::obs::pipeline {

/// Producer-side shed/throughput ledger. Written by the producer thread
/// only; read (racily, monotonic counters) by stats reporters.
struct RingStats {
  std::uint64_t pushed = 0;          ///< events accepted into the ring
  std::uint64_t shed_low = 0;        ///< dropped while full: low priority
  std::uint64_t shed_critical = 0;   ///< dropped while full: critical events
  std::uint64_t high_water = 0;      ///< max observed occupancy

  [[nodiscard]] std::uint64_t shed() const { return shed_low + shed_critical; }
};

/// Fixed-capacity SPSC ring of TraceEvent. Capacity is rounded up to a
/// power of two (index masking instead of modulo). One slot is kept
/// empty to distinguish full from empty, so usable capacity is
/// `capacity() - 1`.
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity_events) {
    std::size_t cap = 2;
    while (cap < capacity_events) cap <<= 1;
    mask_ = cap - 1;
    slots_.reset(new TraceEvent[cap]);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Bytes of slot storage (RSS accounting for the memory-budget story).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return capacity() * sizeof(TraceEvent);
  }

  // --- producer side ---

  /// Pushes up to `count` events; returns how many were accepted (a
  /// prefix of `events` — order is always preserved). Wait-free. The
  /// copy is at most two memcpy segments (pre/post wrap), not a
  /// per-slot loop.
  std::size_t PushBatch(const TraceEvent* events, std::size_t count) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = mask_ - (tail - cached_head_);
    if (free < count) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = mask_ - (tail - cached_head_);
      if (free < count) count = free;
    }
    const std::size_t start = tail & mask_;
    const std::size_t first = std::min(count, capacity() - start);
    std::memcpy(slots_.get() + start, events, first * sizeof(TraceEvent));
    std::memcpy(slots_.get(), events + first, (count - first) * sizeof(TraceEvent));
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  bool TryPush(const TraceEvent& event) { return PushBatch(&event, 1) == 1; }

  /// Producer-side occupancy estimate (exact for the producer thread).
  [[nodiscard]] std::size_t SizeEstimate() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }

  // --- consumer side ---

  /// Pops up to `max` events into `out`; returns how many. Wait-free.
  std::size_t PopBatch(TraceEvent* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n = avail < max ? avail : max;
    const std::size_t start = head & mask_;
    const std::size_t first = std::min(n, capacity() - start);
    std::memcpy(out, slots_.get() + start, first * sizeof(TraceEvent));
    std::memcpy(out + first, slots_.get(), (n - first) * sizeof(TraceEvent));
    head_.store(head + n, std::memory_order_release);
    return n;
  }

 private:
  std::unique_ptr<TraceEvent[]> slots_;
  std::size_t mask_ = 0;

  // Producer and consumer indices live on separate cache lines; each
  // side's cached copy of the peer index sits with its own index so the
  // fast path reads one line.
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  std::size_t cached_head_ = 0;                   // producer's view of head_
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  std::size_t cached_tail_ = 0;                   // consumer's view of tail_
};

/// The producer-facing TraceSink over one ring shard: batches locally
/// (like TraceBatcher) and pushes batch-at-a-time, shedding with
/// priority-split accounting when the collector falls behind. Install as
/// the thread's trace sink (or fan out to it) — strictly one thread.
class RingTraceSink final : public TraceSink {
 public:
  static constexpr std::size_t kBatch = 256;

  explicit RingTraceSink(SpscRing* ring) : ring_(ring) {
    ATHENA_CHECK(ring != nullptr, "RingTraceSink needs a ring");
    ArmReserveWindow(buffer_.data(), buffer_.data() + kBatch);
  }
  ~RingTraceSink() override { Flush(); }

  RingTraceSink(const RingTraceSink&) = delete;
  RingTraceSink& operator=(const RingTraceSink&) = delete;

  void Emit(const TraceEvent& event) override {
    SyncFill();
    if (fill_ == kBatch) Flush();
    buffer_[fill_++] = event;
    // Re-arm before any flush: SyncFill derives the fill count from the
    // reserve cursor, so the cursor must account for this direct append
    // too (an empty window when full — TryReserve then returns null).
    ArmReserveWindow(buffer_.data() + fill_, buffer_.data() + kBatch);
    if (fill_ == kBatch) Flush();
  }

  void EmitBatch(const TraceEvent* events, std::size_t count) override {
    Flush();
    Push(events, count);
  }

  /// Drains the local batch into the ring. Call at quiescent points; the
  /// destructor flushes too.
  void Flush() {
    SyncFill();
    if (fill_ > 0) {
      Push(buffer_.data(), fill_);
      fill_ = 0;
    }
    ArmReserveWindow(buffer_.data(), buffer_.data() + kBatch);
  }

  [[nodiscard]] const RingStats& stats() const { return stats_; }
  [[nodiscard]] SpscRing* ring() const { return ring_; }

 private:
  /// The armed window always starts at buffer_ + fill_, so the cursor's
  /// offset *is* the true fill count after in-place reservations.
  void SyncFill() { fill_ = static_cast<std::size_t>(reserve_cursor() - buffer_.data()); }

  void Push(const TraceEvent* events, std::size_t count) {
    const std::size_t accepted = ring_->PushBatch(events, count);
    stats_.pushed += accepted;
    // Full ring: shed the remainder in resilience-tier order — low-
    // priority events go first, critical events (the detectors' evidence
    // stream) get an individual retry against whatever slots the
    // collector has freed meanwhile. Relative order of the events that
    // do land is preserved.
    for (std::size_t i = accepted; i < count; ++i) {
      if (CriticalTraceEvent(events[i])) {
        if (ring_->PushBatch(&events[i], 1) == 1) {
          ++stats_.pushed;
        } else {
          ++stats_.shed_critical;
        }
      } else {
        ++stats_.shed_low;
      }
    }
    const std::size_t depth = ring_->SizeEstimate();
    if (depth > stats_.high_water) stats_.high_water = depth;
  }

  SpscRing* ring_;
  RingStats stats_;
  std::size_t fill_ = 0;
  std::array<TraceEvent, kBatch> buffer_;
};

}  // namespace athena::obs::pipeline
