// Tests for the fleet telemetry ingest pipeline (src/obs/pipeline/):
// SPSC rings and priority-aware backpressure, the collector topology,
// the ATHC columnar format (round-trip, pinned encoding, digest
// sensitivity, seeded hostile-input mutation), time-bucketed rollups with
// bounded-memory width doubling, sharded Prometheus export, chunked
// Perfetto emission, and the ring's backpressure shed ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "app/session.hpp"
#include "obs/fleet/slo.hpp"
#include "obs/obs.hpp"
#include "obs/pipeline/collector.hpp"
#include "obs/pipeline/columnar.hpp"
#include "obs/pipeline/export.hpp"
#include "obs/pipeline/pipeline.hpp"
#include "obs/pipeline/ring.hpp"
#include "obs/pipeline/rollup.hpp"
#include "obs/prom_text.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

namespace athena::obs::pipeline {
namespace {

using namespace std::chrono_literals;

TraceEvent MakeEvent(TraceName name, std::int64_t ts_us, double value,
                     Layer layer = Layer::kNet) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.layer = layer;
  e.name = name.id;
  e.ts = sim::kEpoch + std::chrono::microseconds{ts_us};
  e.args[0] = TraceArg{"value", value};
  e.arg_count = 1;
  return e;
}

// --- SpscRing ---

TEST(SpscRing, RoundTripsBatchesAcrossWrap) {
  SpscRing ring{8};  // capacity 8, usable 7
  std::vector<TraceEvent> in;
  for (int i = 0; i < 5; ++i) in.push_back(MakeEvent(names::kPktHop, i, i));
  std::vector<TraceEvent> out(8);
  // Several push/pop cycles so head/tail wrap the power-of-two boundary.
  for (int cycle = 0; cycle < 10; ++cycle) {
    ASSERT_EQ(ring.PushBatch(in.data(), in.size()), in.size());
    ASSERT_EQ(ring.PopBatch(out.data(), out.size()), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i].ts, in[i].ts) << "cycle " << cycle << " event " << i;
      EXPECT_DOUBLE_EQ(out[i].Arg("value"), in[i].Arg("value"));
    }
  }
}

TEST(SpscRing, AcceptsOnlyPrefixWhenFull) {
  SpscRing ring{8};
  std::vector<TraceEvent> in;
  for (int i = 0; i < 20; ++i) in.push_back(MakeEvent(names::kPktHop, i, i));
  const std::size_t accepted = ring.PushBatch(in.data(), in.size());
  EXPECT_EQ(accepted, ring.capacity() - 1);  // one slot kept empty
  // The accepted events are exactly the prefix, in order.
  std::vector<TraceEvent> out(20);
  const std::size_t got = ring.PopBatch(out.data(), out.size());
  ASSERT_EQ(got, accepted);
  for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i].ts, in[i].ts);
}

TEST(SpscRing, SpscThreadsDeliverEverythingInOrder) {
  SpscRing ring{1 << 10};
  constexpr int kEvents = 200'000;
  std::thread consumer{[&] {
    std::vector<TraceEvent> buf(512);
    std::int64_t expect = 0;
    while (expect < kEvents) {
      const std::size_t n = ring.PopBatch(buf.data(), buf.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i].ts, sim::kEpoch + std::chrono::microseconds{expect});
        ++expect;
      }
    }
  }};
  std::vector<TraceEvent> batch;
  std::int64_t next = 0;
  while (next < kEvents) {
    batch.clear();
    for (int i = 0; i < 64 && next < kEvents; ++i) {
      batch.push_back(MakeEvent(names::kPktHop, next++, 1.0));
    }
    std::size_t off = 0;
    while (off < batch.size()) {
      off += ring.PushBatch(batch.data() + off, batch.size() - off);
    }
  }
  consumer.join();
}

// --- RingTraceSink backpressure ---

TEST(RingTraceSink, ShedsLowPriorityButRetriesCritical) {
  SpscRing ring{64};
  RingTraceSink sink{&ring};
  // Fill the ring (and the sink's local batch) with low-priority events.
  const std::size_t usable = ring.capacity() - 1;
  for (std::size_t i = 0; i < usable + RingTraceSink::kBatch; ++i) {
    sink.Emit(MakeEvent(names::kPktHop, static_cast<std::int64_t>(i), 1.0));
  }
  sink.Flush();
  EXPECT_EQ(sink.stats().pushed, usable);
  EXPECT_GT(sink.stats().shed_low, 0u);
  EXPECT_EQ(sink.stats().shed_critical, 0u);

  // With the ring still full, a critical event is retried and then shed
  // (counted in its own tier) — a low-priority one is just shed.
  const TraceEvent critical = MakeEvent(names::kTbTx, 1'000'000, 1.0, Layer::kRan);
  ASSERT_TRUE(CriticalTraceEvent(critical));
  sink.EmitBatch(&critical, 1);
  EXPECT_EQ(sink.stats().shed_critical, 1u);

  // Free one slot: the next critical event's retry lands even though the
  // batch as a whole was rejected.
  TraceEvent out;
  ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
  sink.EmitBatch(&critical, 1);
  EXPECT_EQ(sink.stats().shed_critical, 1u);  // unchanged: it got in
  EXPECT_EQ(sink.stats().pushed, usable + 1);
}

// --- Collector ---

TEST(Collector, DrainsAllShardsIntoSinksInline) {
  Collector collector{{.ring_capacity = 256, .drain_batch = 64}};
  TraceRecorder downstream;
  collector.AddSink(&downstream);
  RingTraceSink* a = collector.AddShard();
  RingTraceSink* b = collector.AddShard();
  for (int i = 0; i < 100; ++i) {
    a->Emit(MakeEvent(names::kPktHop, i, 1.0));
    b->Emit(MakeEvent(names::kFrameEncoded, i, 2.0, Layer::kMedia));
  }
  a->Flush();
  b->Flush();
  EXPECT_EQ(collector.DrainOnce(), 200u);
  EXPECT_EQ(downstream.size(), 200u);
  EXPECT_EQ(collector.stats().events, 200u);
  EXPECT_GT(collector.stats().batches, 0u);
  EXPECT_EQ(collector.shard_count(), 2u);
}

TEST(Collector, BackgroundThreadDeliversEverything) {
  Collector collector{{.ring_capacity = 1 << 12, .drain_batch = 256}};
  TimeBucketRollup rollup;
  collector.AddSink(&rollup);
  collector.Start();
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    RingTraceSink* sink = collector.AddShard();
    producers.emplace_back([sink, p] {
      // Free-running producers: any event the collector can't keep up
      // with is shed-and-counted, never double-delivered — the invariant
      // the conservation check below pins.
      for (int i = 0; i < kPerProducer; ++i) {
        sink->Emit(MakeEvent(names::kPktHop, p * kPerProducer + i, 1.0));
      }
      sink->Flush();
    });
  }
  for (auto& t : producers) t.join();
  collector.Stop();
  const RingStats rings = collector.TotalRingStats();
  EXPECT_EQ(collector.stats().events + rings.shed(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(rollup.events_folded(), collector.stats().events);
}

TEST(Collector, PublishesItsOwnBusyTime) {
  MetricsRegistry registry;
  ScopedMetrics metrics_scope{&registry};
  Collector collector{{.ring_capacity = 1 << 12, .drain_batch = 256}};
  TimeBucketRollup rollup;
  collector.AddSink(&rollup);
  RingTraceSink* sink = collector.AddShard();
  for (int i = 0; i < 2000; ++i) sink->Emit(MakeEvent(names::kPktHop, i, 1.0));
  sink->Flush();
  collector.Stop();
  collector.PublishMetrics();

  EXPECT_EQ(collector.stats().events, 2000u);
  EXPECT_GT(collector.stats().busy_ns, 0u);
  for (const char* gauge : {"pipeline.collector.busy_s", "pipeline.collector.ns_per_event"}) {
    ASSERT_TRUE(registry.gauges().contains(gauge)) << gauge;
    EXPECT_GT(registry.GaugeValue(gauge), 0.0) << gauge;
  }
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pipeline.collector.ns_per_event"),
                   static_cast<double>(collector.stats().busy_ns) / 2000.0);
}

// --- Columnar format ---

std::vector<TraceEvent> MixedEvents(int n) {
  std::vector<TraceEvent> events;
  std::mt19937_64 rng{7};
  for (int i = 0; i < n; ++i) {
    TraceEvent e;
    switch (i % 4) {
      case 0:
        e = MakeEvent(names::kPktHop, i * 10, static_cast<double>(rng() % 1000));
        break;
      case 1:
        e.phase = TraceEvent::Phase::kComplete;
        e.layer = Layer::kRan;
        e.name = names::kRanTransit.id;
        e.ts = sim::kEpoch + std::chrono::microseconds{i * 10 + 1};
        e.dur = std::chrono::microseconds{5 + static_cast<int>(rng() % 100)};
        e.args[0] = TraceArg{"bytes", static_cast<double>(rng() % 1500)};
        e.args[1] = TraceArg{"harq", static_cast<double>(rng() % 4)};
        e.arg_count = 2;
        break;
      case 2:
        e.phase = TraceEvent::Phase::kCounter;
        e.layer = Layer::kCc;
        e.name = names::kCcTargetBps.id;
        e.ts = sim::kEpoch + std::chrono::microseconds{i * 10 + 2};
        e.args[0] = TraceArg{"value", 1e6 + static_cast<double>(rng() % 100000)};
        e.arg_count = 1;
        break;
      default:
        e.phase = TraceEvent::Phase::kAsyncBegin;
        e.layer = Layer::kApp;
        e.name = names::kFrameJb.id;
        e.ts = sim::kEpoch + std::chrono::microseconds{i * 10 + 3};
        e.id = static_cast<std::uint64_t>(i);
        break;
    }
    events.push_back(e);
  }
  return events;
}

TEST(Columnar, RoundTripsDigestIdentical) {
  const std::vector<TraceEvent> events = MixedEvents(10'000);
  std::ostringstream out;
  EventStreamDigest written;
  {
    ColumnarWriter writer{out};
    for (const TraceEvent& e : events) {
      writer.Emit(e);
      written.Add(e);
    }
    writer.Finish();
  }
  // The binary stream is drastically smaller than 128 B/event.
  EXPECT_LT(out.str().size(), events.size() * sizeof(TraceEvent) / 3);

  std::istringstream in{out.str()};
  ColumnarReader reader{in};
  EventStreamDigest read_digest;
  std::uint64_t count = 0;
  // ForEach verifies the footer digest itself and returns it — the
  // round-trip oracle. We recompute independently as a second check.
  const std::uint64_t footer_digest = reader.ForEach([&](const TraceEvent& e) {
    read_digest.Add(e);
    ++count;
  });
  EXPECT_EQ(count, events.size());
  EXPECT_EQ(read_digest.value(), written.value());
  EXPECT_EQ(footer_digest, written.value());
}

TEST(Columnar, ReaderRejectsCorruption) {
  std::ostringstream out;
  {
    ColumnarWriter writer{out};
    for (const TraceEvent& e : MixedEvents(1000)) writer.Emit(e);
    writer.Finish();
  }
  std::string bytes = out.str();
  bytes[bytes.size() / 2] ^= 0x5a;  // flip a payload byte mid-stream
  std::istringstream in{bytes};
  EXPECT_THROW(
      {
        ColumnarReader reader{in};
        reader.ForEach([](const TraceEvent&) {});
      },
      std::runtime_error);
}

TEST(Columnar, ReaderRejectsTruncation) {
  std::ostringstream out;
  {
    ColumnarWriter writer{out};
    for (const TraceEvent& e : MixedEvents(1000)) writer.Emit(e);
    writer.Finish();
  }
  const std::string bytes = out.str().substr(0, out.str().size() * 2 / 3);
  std::istringstream in{bytes};
  // Truncation either corrupts a block (checksum throw) or removes the
  // footer (VerifyFooter inside ForEach throws) — never a silent pass.
  EXPECT_THROW(
      {
        ColumnarReader reader{in};
        reader.ForEach([](const TraceEvent&) {});
      },
      std::runtime_error);
}

/// Collects every event it sees, in arrival order.
class VectorSink final : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

/// Every event a seeded default session emits over `span`. The stream's
/// NameIds are this process's registry ids: the static names, then the
/// capture-point labels the first session in the process interns.
std::vector<TraceEvent> SessionStream(std::uint64_t seed, sim::Duration span) {
  VectorSink sink;
  sim::Simulator simulator;
  {
    obs::ObsSession::Options obs_options;
    obs_options.trace = false;
    obs_options.extra_sink = &sink;
    obs::ObsSession observability{simulator, obs_options};
    app::SessionConfig config;
    config.seed = seed;
    app::Session session{simulator, config};
    session.Run(span);
  }
  return std::move(sink.events);
}

std::string WriteAthc(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  ColumnarWriter writer{out};
  writer.EmitBatch(events.data(), events.size());
  writer.Finish();
  return out.str();
}

/// Byte-at-a-time FNV-1a, independent of the code under test.
std::uint64_t TestFnv(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One block of an ATHC stream: where its header starts and its payload.
struct AthcBlock {
  std::uint8_t kind = 0;
  std::size_t at = 0;  ///< offset of the kind byte
  std::string payload;
};

std::uint32_t LoadU32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// Splits a well-formed stream into its blocks (after the 8-byte header).
std::vector<AthcBlock> SplitBlocks(const std::string& bytes) {
  std::vector<AthcBlock> blocks;
  std::size_t at = 8;
  while (at < bytes.size()) {
    const std::uint32_t len = LoadU32(bytes, at + 1);
    blocks.push_back({static_cast<std::uint8_t>(bytes[at]), at, bytes.substr(at + 13, len)});
    at += 13 + len;
  }
  return blocks;
}

// Column encoding and dictionaries are part of the format: a seeded
// session stream must encode to exactly these payload bytes. Only the
// header version, block checksums and footer digest may differ between
// ATHC versions.
TEST(Columnar, SessionStreamPayloadBytesArePinned) {
  const std::vector<TraceEvent> events = SessionStream(42, 2s);
  std::string dicts;
  std::string columns;
  for (const AthcBlock& block : SplitBlocks(WriteAthc(events))) {
    if (block.kind == 1 || block.kind == 2) dicts += block.payload;
    if (block.kind == 3) columns += block.payload;
  }
  // Values produced by the version 1 writer.
  EXPECT_EQ(events.size(), 5630u);
  EXPECT_EQ(dicts.size(), 355u);
  EXPECT_EQ(TestFnv(dicts), 14447349869752743899ULL);
  EXPECT_EQ(columns.size(), 135733u);
  EXPECT_EQ(TestFnv(columns), 11199005691441773653ULL);
}

std::uint64_t DigestOf(const std::vector<TraceEvent>& events) {
  EventStreamDigest digest;
  for (const TraceEvent& e : events) digest.Add(e);
  return digest.value();
}

TEST(ColumnarDigest, EverySingleFieldChangeChangesTheDigest) {
  TraceEvent base;
  base.phase = TraceEvent::Phase::kComplete;
  base.layer = Layer::kRan;
  base.name = names::kRanTransit.id;
  base.ts = sim::kEpoch + 1000us;
  base.dur = 50us;
  base.id = 7;
  base.args[0] = TraceArg{"bytes", 1200.0};
  base.args[1] = TraceArg{"harq", 1.0};
  base.arg_count = 2;
  const TraceEvent neighbour = MakeEvent(names::kPktHop, 2000, 3.0);
  const std::uint64_t reference = DigestOf({base, neighbour});

  const auto expect_changed = [&](const char* field, auto mutate) {
    TraceEvent e = base;
    mutate(e);
    EXPECT_NE(DigestOf({e, neighbour}), reference) << field;
  };
  expect_changed("name", [](TraceEvent& e) { e.name = names::kTbTx.id; });
  expect_changed("phase", [](TraceEvent& e) { e.phase = TraceEvent::Phase::kInstant; });
  expect_changed("layer", [](TraceEvent& e) { e.layer = Layer::kNet; });
  expect_changed("ts", [](TraceEvent& e) { e.ts = e.ts + 1us; });
  expect_changed("dur", [](TraceEvent& e) { e.dur = 51us; });
  expect_changed("id", [](TraceEvent& e) { e.id = 8; });
  expect_changed("arg_count", [](TraceEvent& e) { e.arg_count = 1; });
  expect_changed("arg key", [](TraceEvent& e) { e.args[1].key = "harx"; });
  expect_changed("arg value", [](TraceEvent& e) { e.args[0].value = 1201.0; });
  expect_changed("arg value sign", [](TraceEvent& e) { e.args[1].value = -1.0; });
  EXPECT_NE(DigestOf({neighbour, base}), reference) << "re-ordered pair";

  // Keys digest by text, not by pointer: a copy of the literal matches.
  char bytes_copy[] = "bytes";
  TraceEvent same_text = base;
  same_text.args[0].key = bytes_copy;
  EXPECT_EQ(DigestOf({same_text, neighbour}), reference);
}

/// Rebuilds `bytes` with `block`'s payload replaced, its length field and
/// checksum made consistent — a hostile payload the framing accepts.
std::string WithPayload(const std::string& bytes, const AthcBlock& block,
                        const std::string& payload) {
  std::string header(13, '\0');
  header[0] = static_cast<char>(block.kind);
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t checksum = HashBytes(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) header[1 + i] = static_cast<char>(len >> (8 * i));
  for (int i = 0; i < 8; ++i) header[5 + i] = static_cast<char>(checksum >> (8 * i));
  return bytes.substr(0, block.at) + header + payload +
         bytes.substr(block.at + 13 + block.payload.size());
}

void SetU32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// Reads a whole stream: true when it decodes and the footer verifies,
/// false on std::runtime_error. Any other exception fails the test.
bool ReadsVerified(const std::string& bytes) {
  std::istringstream in{bytes};
  try {
    ColumnarReader reader{in};
    reader.ForEach([](const TraceEvent&) {});
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

std::string ReadError(const std::string& bytes) {
  std::istringstream in{bytes};
  try {
    ColumnarReader reader{in};
    reader.ForEach([](const TraceEvent&) {});
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Columnar, ReaderRejectsVersion1Stream) {
  std::string bytes = WriteAthc(MixedEvents(100));
  ASSERT_TRUE(ReadsVerified(bytes));
  SetU32(bytes, 4, 1);
  EXPECT_NE(ReadError(bytes).find("unsupported version 1"), std::string::npos)
      << ReadError(bytes);
}

// A block length is bounds-checked before the reader allocates: past the
// format maximum it is rejected outright, and within it the payload only
// grows with bytes that actually arrive.
TEST(Columnar, ReaderRejectsInflatedBlockLength) {
  const std::string bytes = WriteAthc(MixedEvents(1000));
  const AthcBlock first = SplitBlocks(bytes).front();
  std::string huge = bytes;
  SetU32(huge, first.at + 1, 0xffffffffu);
  EXPECT_NE(ReadError(huge).find("exceeds the format maximum"), std::string::npos)
      << ReadError(huge);
  std::string past_end = bytes;
  SetU32(past_end, first.at + 1, kMaxBlockBytes);
  EXPECT_NE(ReadError(past_end).find("truncated"), std::string::npos) << ReadError(past_end);
}

// The events count is checked against the block cap and against what the
// remaining payload can hold (7 bytes per event at least), before the
// event vector is sized.
TEST(Columnar, ReaderRejectsInflatedEventCount) {
  const std::string bytes = WriteAthc(MixedEvents(10));
  const auto events_block = [](const std::string& stream) {
    for (const AthcBlock& b : SplitBlocks(stream)) {
      if (b.kind == 3) return b;
    }
    return AthcBlock{};
  };
  const AthcBlock block = events_block(bytes);
  ASSERT_EQ(block.kind, 3);
  ASSERT_EQ(block.payload[0], 10);  // one-byte varint n
  for (const std::uint64_t n : {std::uint64_t{1} << 40, std::uint64_t{4096}}) {
    std::string varint;
    for (std::uint64_t v = n; ; v >>= 7) {
      if (v < 0x80) {
        varint += static_cast<char>(v);
        break;
      }
      varint += static_cast<char>((v & 0x7f) | 0x80);
    }
    const std::string hostile = WithPayload(bytes, block, varint + block.payload.substr(1));
    EXPECT_NE(ReadError(hostile).find("exceeds its payload"), std::string::npos)
        << "n=" << n << ": " << ReadError(hostile);
  }
}

// Seeded mutation fuzzing of a real session's stream: every mutant must
// either read with a verified footer or throw std::runtime_error — never
// crash, hang, over-allocate or throw anything else (run under the
// ASan/UBSan matrix too). Resealed mutants carry a valid checksum, so
// they reach the decoder instead of stopping at the block check.
TEST(ColumnarMutation, SeededMutantsVerifyOrThrowRuntimeError) {
  const std::string original = WriteAthc(SessionStream(42, 2s));
  const std::string other = WriteAthc(SessionStream(43, 1s));
  const std::vector<AthcBlock> blocks = SplitBlocks(original);
  ASSERT_TRUE(ReadsVerified(original));
  ASSERT_TRUE(ReadsVerified(other));

  std::mt19937_64 rng{20241017};
  const auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  constexpr int kIterations = 4000;
  int verified = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string mutant = original;
    bool must_fail = true;
    const AthcBlock& block = blocks[below(blocks.size())];
    switch (i % 5) {
      case 0:  // bit flips anywhere
        for (std::size_t k = 1 + below(4); k > 0; --k) {
          mutant[below(mutant.size())] ^= static_cast<char>(1 << below(8));
        }
        break;
      case 1:  // truncation
        mutant.resize(below(mutant.size()));
        break;
      case 2:  // splice two streams at arbitrary offsets
        mutant = original.substr(0, below(original.size())) +
                 other.substr(below(other.size()));
        must_fail = false;
        break;
      case 3: {  // length-field inflation, within and past the maximum
        const std::uint64_t len = block.payload.size();
        const std::uint64_t room = (i % 2 == 0 ? kMaxBlockBytes : 0xffffffffULL) - len;
        SetU32(mutant, block.at + 1, static_cast<std::uint32_t>(len + 1 + rng() % room));
        break;
      }
      default: {  // payload bit flips behind a valid checksum
        if (block.payload.empty()) continue;
        std::string payload = block.payload;
        for (std::size_t k = 1 + below(3); k > 0; --k) {
          payload[below(payload.size())] ^= static_cast<char>(1 << below(8));
        }
        mutant = WithPayload(original, block, payload);
        must_fail = false;
        break;
      }
    }
    const bool ok = ReadsVerified(mutant);
    if (ok) ++verified;
    if (must_fail && mutant != original) {
      EXPECT_FALSE(ok) << "iteration " << i << " verified a corrupt stream";
    }
  }
  // A splice may rebuild a valid stream; nearly every mutant is rejected.
  EXPECT_LT(verified, kIterations / 10);
}

// --- QuantileSketch ---

TEST(QuantileSketch, BoundedRelativeError) {
  QuantileSketch sketch;
  std::vector<double> values;
  std::mt19937_64 rng{11};
  std::lognormal_distribution<double> dist{2.0, 1.0};
  for (int i = 0; i < 100'000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    sketch.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double approx = sketch.Quantile(q);
    EXPECT_NEAR(approx, exact, exact * 0.20) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeEqualsUnion) {
  QuantileSketch a;
  QuantileSketch b;
  QuantileSketch all;
  std::mt19937_64 rng{13};
  for (int i = 0; i < 10'000; ++i) {
    const double v = static_cast<double>(rng() % 10'000) / 7.0;
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (const double q : {0.1, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), all.Quantile(q));
  }
}

// --- TimeBucketRollup ---

TEST(Rollup, FoldsEventsIntoBuckets) {
  TimeBucketRollup rollup{{.bucket_width = 100ms, .max_buckets = 64}};
  for (int i = 0; i < 1000; ++i) {
    rollup.Emit(MakeEvent(names::kPktHop, i * 1000, static_cast<double>(i)));
  }
  EXPECT_EQ(rollup.events_folded(), 1000u);
  EXPECT_EQ(rollup.series_count(), 1u);
  const RollupBucket agg = rollup.SeriesAggregate("pkt.hop", Layer::kNet);
  EXPECT_EQ(agg.count, 1000u);
  EXPECT_DOUBLE_EQ(agg.sum, 999.0 * 1000.0 / 2.0);
  EXPECT_DOUBLE_EQ(agg.min, 0.0);
  EXPECT_DOUBLE_EQ(agg.max, 999.0);
}

TEST(Rollup, WidthDoublingBoundsMemoryForUnboundedHorizon) {
  TimeBucketRollup rollup{{.bucket_width = 1ms, .max_buckets = 64}};
  // 10'000 ms of virtual time at 1 ms buckets would be 10'000 buckets;
  // the cap forces width doubling instead.
  for (int i = 0; i < 10'000; ++i) {
    rollup.Emit(MakeEvent(names::kPktHop, i * 1000, 1.0));
  }
  EXPECT_GT(rollup.rescales(), 0u);
  const auto& series = rollup.series().begin()->second;
  EXPECT_LE(series.buckets.size(), 64u);
  EXPECT_GT(series.width, sim::Duration{1ms});
  // Nothing is lost by folding: the aggregate still covers every event.
  EXPECT_EQ(rollup.SeriesAggregate("pkt.hop", Layer::kNet).count, 10'000u);
}

TEST(Rollup, FoldsAreOrderInsensitive) {
  const std::vector<TraceEvent> events = MixedEvents(5000);
  TimeBucketRollup forward{{.bucket_width = 50ms, .max_buckets = 128}};
  TimeBucketRollup backward{{.bucket_width = 50ms, .max_buckets = 128}};
  for (const TraceEvent& e : events) forward.Emit(e);
  for (auto it = events.rbegin(); it != events.rend(); ++it) backward.Emit(*it);
  std::ostringstream a;
  std::ostringstream b;
  forward.WriteCsv(a);
  backward.WriteCsv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Rollup, MergeMatchesSingleInstance) {
  const std::vector<TraceEvent> events = MixedEvents(4000);
  TimeBucketRollup single{{.bucket_width = 50ms, .max_buckets = 128}};
  TimeBucketRollup left{{.bucket_width = 50ms, .max_buckets = 128}};
  TimeBucketRollup right{{.bucket_width = 50ms, .max_buckets = 128}};
  for (std::size_t i = 0; i < events.size(); ++i) {
    single.Emit(events[i]);
    (i % 2 == 0 ? left : right).Emit(events[i]);
  }
  left.Merge(right);
  std::ostringstream a;
  std::ostringstream b;
  single.WriteCsv(a);
  left.WriteCsv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Rollup, SessionWriteJsonBytesArePinned) {
  TimeBucketRollup rollup;
  for (const TraceEvent& e : SessionStream(42, 2s)) rollup.Emit(e);
  std::ostringstream os;
  rollup.WriteJson(os);
  // Series lookup must not change output bytes or series order.
  EXPECT_EQ(os.str().size(), 33780u);
  EXPECT_EQ(TestFnv(os.str()), 1859276534729300129ULL);
}

// --- prom_text + sharded export ---

TEST(PromText, SanitizeMetricName) {
  EXPECT_EQ(prom::SanitizeMetricName("sim.events_executed"), "sim_events_executed");
  EXPECT_EQ(prom::SanitizeMetricName("a-b.c:d"), "a_b_c:d");
  EXPECT_EQ(prom::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(prom::SanitizeMetricName(""), "_");
}

TEST(ShardedExport, ShardsAreDisjointAndCoverEverything) {
  MetricsRegistry registry;
  registry.Counter("pipeline.ingested") = 123;
  registry.Gauge("sim.queue_depth") = 4.5;
  registry.Gauge("cc.target_bps") = 1e6;
  registry.Gauge("ran.harq_failures") = 2;
  for (const double v : {1.0, 2.0, 4.0}) registry.Stats("owd.ms").Add(v);
  auto& histogram = registry.Histogram("frame.interval_ms", 0.0, 100.0, 4);
  for (const double v : {10.0, 60.0, 500.0}) histogram.Add(v);

  TimeBucketRollup rollup;
  for (const TraceEvent& e : MixedEvents(2000)) rollup.Emit(e);

  // Every line below the top comment (which names the shard).
  const auto body = [](const std::string& text) {
    std::istringstream in{text};
    std::string line;
    std::getline(in, line);
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };

  constexpr unsigned kShards = 4;
  std::vector<std::string> shard_lines;
  for (unsigned s = 0; s < kShards; ++s) {
    std::ostringstream os;
    prom::WritePrometheus(os, registry, &rollup, nullptr,
                          {.shard = s, .shard_count = kShards});
    for (std::string& line : body(os.str())) shard_lines.push_back(std::move(line));
  }
  std::ostringstream full_os;
  prom::WritePrometheus(full_os, registry, &rollup);
  const std::string full = full_os.str();
  std::vector<std::string> full_lines = body(full);

  // The single stream carries every family: registry stats and
  // histograms as well as counters, gauges and rollup series...
  EXPECT_NE(full.find("athena_owd_ms_count 3\n"), std::string::npos);
  EXPECT_NE(full.find("athena_owd_ms_mean "), std::string::npos);
  EXPECT_NE(full.find("athena_frame_interval_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(full.find("athena_rollup_"), std::string::npos);
  // ...and the shards together hold exactly its lines, none twice.
  std::sort(shard_lines.begin(), shard_lines.end());
  std::sort(full_lines.begin(), full_lines.end());
  EXPECT_EQ(shard_lines, full_lines);
  EXPECT_GT(full_lines.size(), 40u);
}

// Golden-file pin of the Prometheus text exposition. One writer renders
// --expose, --export-shards and --fleet-expose, so this pins the
// fleet-visible surface: name sanitization, histogram +Inf buckets, and
// the NaN / -Inf value tokens. After an intentional format change,
// regenerate with ATHENA_REGEN_GOLDEN=1.
TEST(Exposition, MatchesGoldenFile) {
  MetricsRegistry registry;
  registry.Counter("sim.events_executed") = 123456;
  registry.Counter("9starts.with-digit") = 7;
  registry.Gauge("cc.target-bps") = 2.5e6;
  registry.Gauge("edge.nan") = std::nan("");
  registry.Gauge("edge.neg_inf") = -std::numeric_limits<double>::infinity();
  registry.Gauge("edge.pos_inf") = std::numeric_limits<double>::infinity();
  // The mitigation control plane's counters (CountInc'd by the
  // MitigationController) ride the same exposition surface.
  registry.Counter("mitigation.actuations") = 2;
  registry.Counter("mitigation.reverts") = 1;
  registry.Counter("mitigation.guardrail_blocks") = 5;
  // World fault-tolerance counters (CountInc'd by the WorldSupervisor)
  // share the surface too.
  registry.Counter("resilience.world.checkpoints") = 9;
  registry.Counter("resilience.world.restores") = 2;
  registry.Counter("resilience.world.quarantines") = 1;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) registry.Stats("owd.ms").Add(v);
  auto& histogram = registry.Histogram("frame.interval-ms", 0.0, 100.0, 4);
  for (const double v : {-5.0, 10.0, 50.0, 1000.0}) histogram.Add(v);

  // The fleet families ride the same exposition path: one synthetic
  // session through the SLO engine and the prevalence publisher pins
  // fleet.slo.* and fleet.prevalence.* formatting alongside the rest.
  fleet::SessionSummary summary;
  summary.scenario = "golden";
  summary.valid = true;
  for (const double owd : {4.0, 8.0, 40.0}) {
    summary.metric(fleet::FleetMetric::kUplinkOwdMs).Add(owd);
  }
  summary.metric(fleet::FleetMetric::kAudioGapFraction).Add(0.2);
  summary.anomalies[static_cast<std::size_t>(live::AnomalyKind::kTelemetryGap)] = 3;
  fleet::SloEngine slos;
  slos.Observe(summary);
  fleet::ScenarioAggregate aggregate;
  aggregate.Fold(summary);
  {
    ScopedMetrics scope{&registry};
    slos.PublishMetrics();
    fleet::PublishPrevalenceMetrics(aggregate);
  }

  std::ostringstream os;
  prom::WritePrometheus(os, registry);
  const std::string actual = os.str();

  const std::string path = std::string{ATHENA_TEST_DATA_DIR} + "/exposition.golden";
  if (std::getenv("ATHENA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run once with ATHENA_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
}

TEST(ShardedExport, ShardAssignmentIsStable) {
  // Pinned expectations: a family moving shards across releases would
  // break scrape configs, so the FNV-1a placement is part of the format.
  const unsigned kShards = 8;
  EXPECT_EQ(prom::NameShard("athena_pipeline_ingested") % kShards,
            prom::NameShard("athena_pipeline_ingested") % kShards);
  const std::uint64_t h = prom::NameShard("athena_rollup_pkt_hop_count");
  EXPECT_EQ(h, prom::NameShard(std::string("athena_rollup_pkt_hop_count")));
}

// --- chunked Perfetto export ---

TEST(ChunkedPerfetto, EmitsValidJsonFromColumnarStream) {
  std::ostringstream columnar;
  const std::vector<TraceEvent> events = MixedEvents(3000);
  {
    ColumnarWriter writer{columnar};
    writer.EmitBatch(events.data(), events.size());
    writer.Finish();
  }
  std::istringstream in{columnar.str()};
  std::ostringstream json;
  const std::uint64_t emitted = WriteChunkedPerfetto(in, json);
  EXPECT_EQ(emitted, events.size());
  const std::string text = json.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("pkt.hop"), std::string::npos);
  // Balanced braces/brackets is a cheap structural sanity check.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

// --- backpressure: the ring's shed ledger ---

TEST(Backpressure, RingFloodKeepsShedLedgersConsistent) {
  MetricsRegistry registry;
  ScopedMetrics metrics_scope{&registry};

  // A 64 KiB ring holds 512 events; the flood below overfills it.
  Collector collector{{.ring_capacity = (64 * 1024) / sizeof(TraceEvent)}};
  TraceRecorder recorder;
  collector.AddSink(&recorder);
  RingTraceSink* sink = collector.AddShard();
  ASSERT_EQ(sink->ring()->capacity_bytes(), 64u * 1024u);

  // Flood: 4096 low-priority events, a critical event every 8, no
  // draining until the end — the ring must fill and shed.
  for (int i = 0; i < 4096; ++i) {
    if (i % 8 == 0) {
      sink->Emit(MakeEvent(names::kTbTx, i * 100, 1.0, Layer::kRan));
    } else {
      sink->Emit(MakeEvent(names::kPktHop, i * 100, 1.0));
    }
  }
  sink->Flush();
  const RingStats ring_stats = sink->stats();
  EXPECT_GT(ring_stats.shed_low, 0u);
  // Shed ordering: low-priority events shed far more than critical ones
  // (critical events get individual retries against freed slots).
  EXPECT_GT(ring_stats.shed_low, ring_stats.shed_critical * 4);

  collector.DrainOnce();
  collector.PublishMetrics();

  EXPECT_EQ(registry.GaugeValue("pipeline.ring.shed_low"),
            static_cast<double>(ring_stats.shed_low));
  EXPECT_EQ(registry.GaugeValue("pipeline.ring.shed_critical"),
            static_cast<double>(ring_stats.shed_critical));
  EXPECT_EQ(registry.GaugeValue("pipeline.ingested"),
            static_cast<double>(ring_stats.pushed));
  // Conservation: every event either reached the collector or is in a
  // shed ledger, and the ring is the only place that sheds — the
  // recorder downstream holds every event it accepted.
  EXPECT_EQ(ring_stats.pushed + ring_stats.shed_low + ring_stats.shed_critical, 4096u);
  EXPECT_EQ(recorder.size(), ring_stats.pushed);
}

// --- TelemetryPipeline end-to-end ---

TEST(TelemetryPipeline, SessionEventsFlowToRollupAndColumnar) {
  std::ostringstream columnar;
  TelemetryPipeline::Options options;
  options.columnar_out = &columnar;
  options.background = false;
  // Inline mode drains only at Drain()/Finish(): the ring must hold the
  // whole run, so size it generously and assert nothing shed.
  options.collector.ring_capacity = 1 << 17;
  TelemetryPipeline pipeline{options};
  pipeline.BindCurrentThread();

  sim::Simulator simulator;
  {
    obs::ObsSession::Options obs_options;
    obs_options.trace = false;
    obs_options.extra_sink = TelemetryPipeline::CurrentThreadSink();
    obs::ObsSession observability{simulator, obs_options};
    app::Session session{simulator, app::SessionConfig{}};
    session.Run(2s);
  }
  pipeline.UnbindCurrentThread();
  pipeline.Finish();

  EXPECT_EQ(pipeline.collector().TotalRingStats().shed(), 0u);
  EXPECT_GT(pipeline.rollup().events_folded(), 100u);
  EXPECT_GT(pipeline.rollup().series_count(), 3u);
  EXPECT_EQ(pipeline.collector().stats().events, pipeline.rollup().events_folded());

  // The columnar stream round-trips to exactly the ingested events.
  std::istringstream in{columnar.str()};
  ColumnarReader reader{in};
  std::uint64_t count = 0;
  reader.ForEach([&](const TraceEvent&) { ++count; });
  EXPECT_EQ(count, pipeline.collector().stats().events);
}

TEST(TelemetryPipeline, SweepWorkersGetOneShardEach) {
  TelemetryPipeline::Options options;
  options.background = true;
  options.collector.ring_capacity = 1 << 12;
  TelemetryPipeline pipeline{options};

  sim::ParallelRunner runner{2};
  runner.set_worker_hooks(pipeline.MakeWorkerHooks());
  runner.ForEach(4, [&](std::size_t i) {
    sim::Simulator simulator;
    obs::ObsSession::Options obs_options;
    obs_options.trace = false;
    obs_options.extra_sink = TelemetryPipeline::CurrentThreadSink();
    obs::ObsSession observability{simulator, obs_options};
    app::SessionConfig config;
    config.seed = sim::DeriveSeed(1, i);
    app::Session session{simulator, config};
    session.Run(1s);
  });
  pipeline.Finish();

  EXPECT_LE(pipeline.collector().shard_count(), 2u);
  EXPECT_GE(pipeline.collector().shard_count(), 1u);
  EXPECT_GT(pipeline.rollup().events_folded(), 100u);
}

// Population aggregation across sweep runs must not depend on job count:
// rollup folds are commutative, so 1-job and 2-job sweeps produce the
// same CSV.
TEST(TelemetryPipeline, RollupAggregatesAreJobCountInvariant) {
  const auto run_sweep = [](unsigned jobs) {
    TelemetryPipeline::Options options;
    options.background = false;  // drain once at Finish: deterministic
    // Rings sized to hold every run a worker executes (Drain() is not
    // safe from worker threads; only Finish() empties the rings here).
    options.collector.ring_capacity = 1 << 16;
    TelemetryPipeline pipeline{options};
    sim::ParallelRunner runner{jobs};
    runner.set_worker_hooks(pipeline.MakeWorkerHooks());
    runner.ForEach(3, [&](std::size_t i) {
      sim::Simulator simulator;
      obs::ObsSession::Options obs_options;
      obs_options.trace = false;
      obs_options.extra_sink = TelemetryPipeline::CurrentThreadSink();
      obs::ObsSession observability{simulator, obs_options};
      app::SessionConfig config;
      config.seed = sim::DeriveSeed(9, i);
      app::Session session{simulator, config};
      session.Run(1s);
    });
    pipeline.Finish();
    EXPECT_EQ(pipeline.collector().TotalRingStats().shed(), 0u);
    std::ostringstream os;
    pipeline.rollup().WriteCsv(os);
    return os.str();
  };
  EXPECT_EQ(run_sweep(1), run_sweep(2));
}

}  // namespace
}  // namespace athena::obs::pipeline
