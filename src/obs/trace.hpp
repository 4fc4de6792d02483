// Cross-layer tracing: every layer of the stack emits events onto one
// synchronized virtual-time timeline — the Athena thesis ("you can only
// explain wireless-induced delay by seeing every layer at once") applied
// to the framework itself.
//
// Design rules:
//  - One `TraceSink*` per thread, null by default. Every emit helper is an
//    inline function whose first instruction is a null check, so with
//    tracing disabled the instrumentation costs one predictable branch
//    and existing behaviour is untouched (no RNG draws, no scheduling).
//    The sink pointer is thread-local so concurrent simulations (see
//    sim::ParallelRunner) each trace into their own sink.
//  - A `TraceEvent` is a fixed-size, trivially-copyable record: names are
//    interned 32-bit ids (obs/trace_names.hpp), so emitting never touches
//    the heap. Events carry virtual time (`sim::TimePoint`), one track
//    (`Layer`) per subsystem, and a handful of numeric args.
//  - Interval events that may overlap on a track (packet transits, HARQ
//    chains, frame lifecycles) are emitted as *async* begin/end pairs
//    keyed by an id, and always as a completed pair (`TraceAsyncSpan`),
//    so a recorded trace never contains an unbalanced span.
//  - `TraceRecorder` buffers events in chunked block storage (no huge
//    reallocation-and-copy spikes) and serializes Chrome trace-event
//    JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_names.hpp"
#include "sim/time.hpp"

namespace athena::obs {

/// One trace track per layer of the stack (rendered as named threads).
enum class Layer : std::uint8_t { kSim, kNet, kRan, kCc, kApp, kMedia, kCore, kOther };
inline constexpr std::size_t kLayerCount = 8;

[[nodiscard]] const char* ToString(Layer layer);

/// A numeric key/value attached to an event. Keys must be string
/// literals (or otherwise outlive the sink). Deliberately no default
/// member initializers: TraceEvent leaves unused arg slots
/// uninitialized so the emit path never pays a 96-byte clear, and
/// every reader is bounded by `arg_count`.
struct TraceArg {
  const char* key;
  double value;
};

struct TraceEvent {
  /// Chrome trace-event phases: complete span, async begin/end, instant,
  /// counter.
  enum class Phase : char {
    kComplete = 'X',
    kAsyncBegin = 'b',
    kAsyncEnd = 'e',
    kInstant = 'i',
    kCounter = 'C',
  };

  Phase phase = Phase::kInstant;
  Layer layer = Layer::kOther;
  std::uint8_t arg_count = 0;
  NameId name = kEmptyNameId;  ///< interned (obs/trace_names.hpp)
  sim::TimePoint ts;
  sim::Duration dur{0};   ///< kComplete only
  std::uint64_t id = 0;   ///< async-pair key (packet id, chain id, frame id)
  std::array<TraceArg, 6> args;  ///< only [0, arg_count) are initialized

  /// Value of the arg named `key`, or `fallback` when absent. `key` must
  /// be a string literal: identical literals are usually pooled by the
  /// linker, so the first pass is pointer compares (the streaming-decode
  /// hot path); the content-compare pass keeps lookups correct when the
  /// emit site's literal lives in another binary region.
  [[nodiscard]] double Arg(const char* key, double fallback = 0.0) const {
    for (std::size_t i = 0; i < arg_count; ++i) {
      if (args[i].key == key) return args[i].value;
    }
    const std::string_view want{key};
    for (std::size_t i = 0; i < arg_count; ++i) {
      if (want == args[i].key) return args[i].value;
    }
    return fallback;
  }

  /// Resolves the interned name (serialization/tests; not the hot path).
  [[nodiscard]] std::string name_text() const {
    return TraceNameRegistry::Instance().NameOf(name);
  }
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay a POD-ish record: the recorder relies on "
              "memcpy-cheap appends and the emit path on zero allocation");

/// Where trace events go. Implementations must tolerate events arriving
/// out of timestamp order (async pairs are emitted at completion time).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& event) = 0;

  /// Batched delivery — the fleet-ingest hot path (obs/pipeline/). The
  /// default forwards event-by-event, so every sink is batch-capable;
  /// sinks with a cheaper bulk form (TraceRecorder's chunk memcpy, the
  /// pipeline's ring PushBatch) override it.
  virtual void EmitBatch(const TraceEvent* events, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) Emit(events[i]);
  }

  /// Bump-pointer fast path: sinks with contiguous slot storage (the
  /// TraceRecorder's chunk tail, TraceBatcher's and the ring sink's
  /// inline buffers) arm a reservation window over it, and the emit
  /// helpers then construct events *in place* — no stack copy, no
  /// virtual call — until the window is exhausted. Returns null when no
  /// window is armed (fanout, consumer-side sinks);
  /// callers fall back to the virtual Emit. This is where the sub-82 ns
  /// batched emit cost comes from: one virtual call per window, one
  /// 128-byte store per event.
  [[nodiscard]] TraceEvent* TryReserve() {
    TraceEvent* slot = reserve_cursor_;
    if (slot == reserve_limit_) return nullptr;
    reserve_cursor_ = slot + 1;
    return slot;
  }

 protected:
  /// Arms the fast-path window over [begin, end). The sink must treat
  /// everything before the current cursor as committed events and must
  /// re-sync (reserve_cursor()) before reading its own storage.
  void ArmReserveWindow(TraceEvent* begin, TraceEvent* end) {
    reserve_cursor_ = begin;
    reserve_limit_ = end;
  }
  void DisarmReserveWindow() { reserve_cursor_ = reserve_limit_ = nullptr; }
  [[nodiscard]] TraceEvent* reserve_cursor() const { return reserve_cursor_; }

 private:
  TraceEvent* reserve_cursor_ = nullptr;
  TraceEvent* reserve_limit_ = nullptr;
};

namespace detail {
/// The per-thread sink. Null = tracing disabled (the default). Thread-
/// local so concurrent simulations compose: each sim::ParallelRunner
/// worker installs its run's sink on its own thread and never sees
/// another run's events.
inline thread_local TraceSink* g_trace_sink = nullptr;

inline void FillArgs(TraceEvent& e, std::initializer_list<TraceArg> args) {
  for (const TraceArg& a : args) {
    if (e.arg_count == e.args.size()) break;
    e.args[e.arg_count++] = a;
  }
}

/// Resets every field a reader may touch. Reserved slots hold stale
/// bytes from earlier events, so in-place construction must write all
/// of them (args excepted — readers are bounded by arg_count).
inline void InitEvent(TraceEvent& e, TraceEvent::Phase phase, Layer layer,
                      NameId name, sim::TimePoint ts) {
  e.phase = phase;
  e.layer = layer;
  e.arg_count = 0;
  e.name = name;
  e.ts = ts;
  e.dur = sim::Duration{0};
  e.id = 0;
}
}  // namespace detail

[[nodiscard]] inline TraceSink* trace_sink() { return detail::g_trace_sink; }
[[nodiscard]] inline bool trace_enabled() { return detail::g_trace_sink != nullptr; }

/// Installs `sink` as the calling thread's trace sink (null disables
/// tracing). Returns the previous sink so scopes can restore it.
inline TraceSink* set_trace_sink(TraceSink* sink) {
  TraceSink* prev = detail::g_trace_sink;
  detail::g_trace_sink = sink;
  return prev;
}

/// A complete span [begin, end) on `layer`'s track. Use only for
/// intervals that cannot overlap others of the same track (e.g. the
/// serialized service times of a FIFO link, or a Run* call of the sim
/// kernel); overlapping intervals must use TraceAsyncSpan.
inline void TraceSpan(Layer layer, TraceName name, sim::TimePoint begin,
                      sim::TimePoint end, std::initializer_list<TraceArg> args = {}) {
  TraceSink* sink = detail::g_trace_sink;
  if (sink == nullptr) return;
  TraceEvent* slot = sink->TryReserve();
  TraceEvent local;
  TraceEvent& e = slot != nullptr ? *slot : local;
  detail::InitEvent(e, TraceEvent::Phase::kComplete, layer, name.id, begin);
  e.dur = end - begin;
  detail::FillArgs(e, args);
  if (slot == nullptr) sink->Emit(local);
}

/// An async (possibly overlapping) span keyed by `id`, emitted as a
/// balanced begin/end pair at completion time.
inline void TraceAsyncSpan(Layer layer, TraceName name, std::uint64_t id,
                           sim::TimePoint begin, sim::TimePoint end,
                           std::initializer_list<TraceArg> args = {}) {
  TraceSink* sink = detail::g_trace_sink;
  if (sink == nullptr) return;
  {
    TraceEvent* slot = sink->TryReserve();
    TraceEvent local;
    TraceEvent& b = slot != nullptr ? *slot : local;
    detail::InitEvent(b, TraceEvent::Phase::kAsyncBegin, layer, name.id, begin);
    b.id = id;
    detail::FillArgs(b, args);
    if (slot == nullptr) sink->Emit(local);
  }
  {
    TraceEvent* slot = sink->TryReserve();
    TraceEvent local;
    TraceEvent& e = slot != nullptr ? *slot : local;
    detail::InitEvent(e, TraceEvent::Phase::kAsyncEnd, layer, name.id,
                      end < begin ? begin : end);
    e.id = id;
    if (slot == nullptr) sink->Emit(local);
  }
}

/// A zero-duration marker on `layer`'s track.
inline void TraceInstant(Layer layer, TraceName name, sim::TimePoint t,
                         std::initializer_list<TraceArg> args = {}) {
  TraceSink* sink = detail::g_trace_sink;
  if (sink == nullptr) return;
  TraceEvent* slot = sink->TryReserve();
  TraceEvent local;
  TraceEvent& e = slot != nullptr ? *slot : local;
  detail::InitEvent(e, TraceEvent::Phase::kInstant, layer, name.id, t);
  detail::FillArgs(e, args);
  if (slot == nullptr) sink->Emit(local);
}

/// A sampled counter series (rendered as a graph track).
inline void TraceCounter(Layer layer, TraceName name, sim::TimePoint t,
                         double value) {
  TraceSink* sink = detail::g_trace_sink;
  if (sink == nullptr) return;
  TraceEvent* slot = sink->TryReserve();
  TraceEvent local;
  TraceEvent& e = slot != nullptr ? *slot : local;
  detail::InitEvent(e, TraceEvent::Phase::kCounter, layer, name.id, t);
  e.args[0] = TraceArg{"value", value};
  e.arg_count = 1;
  if (slot == nullptr) sink->Emit(local);
}

/// True for events the live diagnosis engine decodes (TB telemetry,
/// RAN transits, HARQ chains, jitter-buffer verdicts, correlator
/// verdicts, overload reports, …). When the ingest pipeline's ring is
/// full (obs/pipeline/ring.hpp) these are the events it retries rather
/// than sheds: dropping them blinds the detectors, while dropping
/// anything else only thins the Perfetto timeline.
[[nodiscard]] inline bool CriticalTraceEvent(const TraceEvent& e) {
  return e.name == names::kTbTx.id || e.name == names::kTbRtx.id ||
         e.name == names::kRanTransit.id || e.name == names::kHarqChain.id ||
         e.name == names::kRanRlcBytes.id || e.name == names::kCcOveruse.id ||
         e.name == names::kLinkDrop.id || e.name == names::kFrameJb.id ||
         e.name == names::kSampleJb.id || e.name == names::kPktUplink.id ||
         e.name == names::kOverloadShed.id;
}

/// Buffers events in memory and serializes them as Chrome trace-event
/// JSON (`{"traceEvents": [...]}`), with one named track per Layer.
/// Storage is chunked: appending never copies already-buffered events,
/// so emit cost stays flat no matter how large the trace grows.
class TraceRecorder final : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override {
    SyncReserved();
    if (chunk_pos_ == kChunkSize) NewChunk();
    chunks_.back()[chunk_pos_++] = event;
    ++size_;
    RearmWindow();
  }

  [[nodiscard]] std::size_t size() const { return size_ + PendingReserved(); }
  void Clear() {
    DisarmReserveWindow();
    window_base_ = nullptr;
    chunks_.clear();
    chunk_pos_ = kChunkSize;
    size_ = 0;
  }

  /// Bulk append: a straight chunk-tail memcpy.
  void EmitBatch(const TraceEvent* events, std::size_t count) override {
    SyncReserved();
    while (count > 0) {
      if (chunk_pos_ == kChunkSize) NewChunk();
      const std::size_t room = kChunkSize - chunk_pos_;
      const std::size_t n = count < room ? count : room;
      std::memcpy(chunks_.back().data.get() + chunk_pos_, events,
                  n * sizeof(TraceEvent));
      chunk_pos_ += n;
      size_ += n;
      events += n;
      count -= n;
    }
    RearmWindow();
  }

  /// Visits every buffered event in emit order (reserved-but-unsynced
  /// slots included — the window always covers the last chunk's tail).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      const std::size_t n =
          c + 1 == chunks_.size() ? chunk_pos_ + PendingReserved() : kChunkSize;
      for (std::size_t i = 0; i < n; ++i) fn(chunks_[c][i]);
    }
  }

  /// Number of events on a given layer's track (test/report helper).
  [[nodiscard]] std::size_t CountLayer(Layer layer) const;

  /// Writes the full Chrome trace-event JSON document. Events are sorted
  /// by timestamp; track-naming metadata events are emitted first.
  void WriteJson(std::ostream& os) const;

 private:
  // 256 events × 128 B = 32 KiB per chunk: comfortably below malloc's
  // mmap threshold, so chunk storage is recycled heap memory instead of
  // fresh mmap'd pages whose first-touch soft faults would dominate the
  // emit cost.
  static constexpr std::size_t kChunkSize = 256;

  // Chunks are heap arrays reached through a small vector of owners; the
  // vector's growth only moves pointers, never buffered events.
  struct ChunkHolder {
    ChunkHolder() : data(new TraceEvent[kChunkSize]) {}
    std::unique_ptr<TraceEvent[]> data;
    TraceEvent& operator[](std::size_t i) { return data[i]; }
    const TraceEvent& operator[](std::size_t i) const { return data[i]; }
  };

  void NewChunk() {
    chunks_.emplace_back();
    chunk_pos_ = 0;
  }

  /// Events the emit helpers placed via the reservation window but not
  /// yet folded into chunk_pos_/size_.
  [[nodiscard]] std::size_t PendingReserved() const {
    return window_base_ == nullptr
               ? 0
               : static_cast<std::size_t>(reserve_cursor() - window_base_);
  }

  /// Folds reservation progress into the chunk bookkeeping.
  void SyncReserved() {
    const std::size_t n = PendingReserved();
    chunk_pos_ += n;
    size_ += n;
    window_base_ = nullptr;
    DisarmReserveWindow();
  }

  /// Re-arms the window over the current chunk's free tail.
  void RearmWindow() {
    if (chunks_.empty() || chunk_pos_ >= kChunkSize) return;
    TraceEvent* base = chunks_.back().data.get() + chunk_pos_;
    window_base_ = base;
    ArmReserveWindow(base, chunks_.back().data.get() + kChunkSize);
  }

  std::vector<ChunkHolder> chunks_;
  std::size_t chunk_pos_ = kChunkSize;  // forces a chunk on first Emit
  std::size_t size_ = 0;
  TraceEvent* window_base_ = nullptr;  // reservation window start, or null
};

/// Forwards every event to a small list of sinks, so independent
/// consumers (a TraceRecorder and the live anomaly detectors, say) can
/// observe the same emit points without knowing about each other.
class TraceFanout final : public TraceSink {
 public:
  void Add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void Emit(const TraceEvent& event) override {
    for (TraceSink* s : sinks_) s->Emit(event);
  }

  void EmitBatch(const TraceEvent* events, std::size_t count) override {
    for (TraceSink* s : sinks_) s->EmitBatch(events, count);
  }

  [[nodiscard]] std::size_t size() const { return sinks_.size(); }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Batches events in a fixed inline buffer and hands them downstream
/// `EmitBatch`-at-a-time: the producer half of the ingest pipeline.
/// Amortizes the virtual dispatch (and, with a ring downstream, the
/// atomic release) over kBatch events; call `Flush()` at a quiescent
/// point (end of run, checkpoint) — the destructor also flushes.
///
/// Single-threaded like every TraceSink: install one per thread.
class TraceBatcher final : public TraceSink {
 public:
  static constexpr std::size_t kBatch = 256;

  explicit TraceBatcher(TraceSink* downstream) : downstream_(downstream) {
    ArmReserveWindow(buffer_.data(), buffer_.data() + kBatch);
  }
  ~TraceBatcher() override { Flush(); }

  TraceBatcher(const TraceBatcher&) = delete;
  TraceBatcher& operator=(const TraceBatcher&) = delete;

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
    // Already batched upstream: flush what's pending (order-preserving)
    // and pass the caller's batch through untouched.
    Flush();
    downstream_->EmitBatch(events, count);
  }

  void Flush() {
    SyncFill();
    if (fill_ > 0) {
      downstream_->EmitBatch(buffer_.data(), fill_);
      fill_ = 0;
    }
    ArmReserveWindow(buffer_.data(), buffer_.data() + kBatch);
  }

  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(reserve_cursor() - buffer_.data());
  }

 private:
  /// The armed window always starts at buffer_ + fill_, so the cursor's
  /// offset *is* the true fill count after in-place reservations.
  void SyncFill() { fill_ = static_cast<std::size_t>(reserve_cursor() - buffer_.data()); }

  TraceSink* downstream_;
  std::size_t fill_ = 0;
  std::array<TraceEvent, kBatch> buffer_;
};

/// RAII: installs a sink for the current scope (and thread), restores
/// the previous one on exit. Tests and tools use this so no state leaks.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink* sink) : prev_(set_trace_sink(sink)) {}
  ~ScopedTraceSink() { set_trace_sink(prev_); }

  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* prev_;
};

}  // namespace athena::obs
