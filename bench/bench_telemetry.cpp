// Telemetry-pipeline throughput and memory baseline, written to
// BENCH_telemetry.json (path = argv[1], default "BENCH_telemetry.json";
// pass --smoke for the reduced CI sizing):
//
//   1. ring_ingest  — multi-producer SPSC-shard ingest: N producer
//      threads each EmitBatch into their own ring while the collector
//      thread drains everything into a counting sink. `events_per_sec`
//      is the acceptance number (≥10M/s on 8 cores; single-core hosts
//      report their honest lower figure plus `spsc_events_per_sec`, the
//      one-ring push/pop ceiling the fleet number scales from).
//   2. rollup       — TimeBucketRollup fold rate, and the bounded-memory
//      check: folding a 10× longer horizon must leave the rollup's
//      resident bytes flat (width doubling) and peak RSS within noise.
//   3. columnar     — ATHC write and read throughput plus the
//      write→read digest round-trip (`digest_match`).
//   4. session_stream — the collector's per-event cost on a recorded
//      30 s session stream: ColumnarWriter, its EventStreamDigest alone,
//      and TimeBucketRollup, in ns/event (median of 5 passes), plus the
//      ATHC bytes/event of that stream.
//
// The file is stamped with the build type, the git revision (pass
// --git-rev=REV; bench/run_bench_telemetry.sh does) and
// hardware_concurrency. bench/run_bench_telemetry.sh wraps this up.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "app/session.hpp"
#include "obs/obs.hpp"
#include "obs/pipeline/collector.hpp"
#include "obs/pipeline/columnar.hpp"
#include "obs/pipeline/ring.hpp"
#include "obs/pipeline/rollup.hpp"
#include "obs/trace.hpp"
#include "obs/trace_names.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/wall_clock.hpp"

#ifndef ATHENA_BUILD_TYPE
#define ATHENA_BUILD_TYPE "unknown"
#endif

namespace {

using namespace athena;
using namespace athena::obs;
using namespace athena::obs::pipeline;

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = sim::WallClock::now();
  fn();
  const auto t1 = sim::WallClock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Peak RSS in bytes (0 where unsupported) — the flat-memory evidence.
std::size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// A realistic event mix (instants with args, complete spans, counters)
/// reused as a cyclic template — generation cost stays off the clock.
std::vector<TraceEvent> MakeTemplate(std::size_t n) {
  std::vector<TraceEvent> events(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceEvent& e = events[i];
    e.ts = sim::kEpoch + std::chrono::microseconds{static_cast<std::int64_t>(i)};
    switch (i % 3) {
      case 0:
        e.phase = TraceEvent::Phase::kInstant;
        e.layer = Layer::kNet;
        e.name = names::kPktHop.id;
        e.args[0] = TraceArg{"bytes", 1200.0};
        e.args[1] = TraceArg{"hop", static_cast<double>(i % 4)};
        e.arg_count = 2;
        break;
      case 1:
        e.phase = TraceEvent::Phase::kComplete;
        e.layer = Layer::kRan;
        e.name = names::kRanTransit.id;
        e.dur = std::chrono::microseconds{120};
        e.args[0] = TraceArg{"bytes", 1500.0};
        e.arg_count = 1;
        break;
      default:
        e.phase = TraceEvent::Phase::kCounter;
        e.layer = Layer::kCc;
        e.name = names::kCcTargetBps.id;
        e.args[0] = TraceArg{"value", 2.5e6};
        e.arg_count = 1;
        break;
    }
  }
  return events;
}

/// Terminal sink: counts and forgets. Keeps the collector's drain loop
/// honest (a virtual call per batch) without buffering cost.
class CountingSink final : public TraceSink {
 public:
  void Emit(const TraceEvent&) override { ++events_; }
  void EmitBatch(const TraceEvent*, std::size_t count) override { events_ += count; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

struct RingIngestResult {
  double events_per_sec = 0.0;
  double spsc_events_per_sec = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  unsigned producers = 0;
};

RingIngestResult BenchRingIngest(std::uint64_t events_per_producer) {
  RingIngestResult result;
  unsigned producers = std::thread::hardware_concurrency();
  if (producers < 1) producers = 1;
  if (producers > 8) producers = 8;
  result.producers = producers;

  const std::vector<TraceEvent> tmpl = MakeTemplate(4096);

  // Single-ring ceiling first: one producer, one consumer, tight loop.
  {
    SpscRing ring{1 << 14};
    std::atomic<bool> done{false};
    std::uint64_t popped = 0;
    std::thread consumer{[&] {
      std::vector<TraceEvent> buf(512);
      while (!done.load(std::memory_order_relaxed) || ring.SizeEstimate() > 0) {
        const std::size_t n = ring.PopBatch(buf.data(), buf.size());
        popped += n;
        // Yield on empty so a single-core host interleaves the two sides
        // instead of burning the quantum spinning.
        if (n == 0) std::this_thread::yield();
      }
    }};
    const double secs = WallSeconds([&] {
      std::uint64_t sent = 0;
      std::size_t off = 0;
      while (sent < events_per_producer) {
        std::size_t n = 512;
        if (off + n > tmpl.size()) off = 0;
        const std::size_t accepted = ring.PushBatch(tmpl.data() + off, n);
        sent += accepted;
        off += n;
        if (accepted == 0) std::this_thread::yield();
      }
      done.store(true, std::memory_order_relaxed);
    });
    consumer.join();
    result.spsc_events_per_sec =
        secs > 0.0 ? static_cast<double>(popped) / secs : 0.0;
  }

  // Fleet topology: `producers` shards, one collector thread, counting
  // terminal sink. Producers free-run; shed events are counted, and the
  // throughput number is *delivered* events (the honest one).
  Collector collector{{.ring_capacity = 1 << 14, .drain_batch = 512}};
  CountingSink counter;
  collector.AddSink(&counter);
  std::vector<RingTraceSink*> sinks;
  sinks.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) sinks.push_back(collector.AddShard());
  collector.Start();

  const double secs = WallSeconds([&] {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      RingTraceSink* sink = sinks[p];
      threads.emplace_back([&, sink] {
        std::size_t off = 0;
        for (std::uint64_t sent = 0; sent < events_per_producer; sent += 256) {
          if (off + 256 > tmpl.size()) off = 0;
          sink->EmitBatch(tmpl.data() + off, 256);
          off += 256;
        }
        sink->Flush();
      });
    }
    for (auto& t : threads) t.join();
    collector.Stop();
  });

  result.delivered = collector.stats().events;
  result.shed = collector.TotalRingStats().shed();
  result.events_per_sec =
      secs > 0.0 ? static_cast<double>(result.delivered) / secs : 0.0;
  return result;
}

struct RollupResult {
  double events_per_sec = 0.0;
  std::size_t memory_1x = 0;
  std::size_t memory_10x = 0;
  std::size_t rss_before = 0;
  std::size_t rss_after_10x = 0;
  std::uint64_t rescales = 0;
};

RollupResult BenchRollup(std::uint64_t events) {
  RollupResult result;
  const std::vector<TraceEvent> tmpl = MakeTemplate(4096);
  std::vector<TraceEvent> batch = tmpl;

  // Folds `events` events whose timestamps spread across `span_seconds`
  // of virtual time; returns the rollup's resident bytes. Both horizons
  // below exceed the bucket cap (256 × 100 ms = 25.6 s), so the flat-
  // memory claim is exercised where it matters: width doubling absorbs
  // a 10× longer run with zero additional resident bytes.
  const auto fold_span = [&](double span_seconds, double* fold_secs,
                             std::uint64_t* rescales) {
    TimeBucketRollup rollup{{.bucket_width = std::chrono::milliseconds{100},
                             .max_buckets = 256}};
    const std::uint64_t batches = events / tmpl.size() + 1;
    const double secs = WallSeconds([&] {
      for (std::uint64_t b = 0; b < batches; ++b) {
        const auto offset = std::chrono::microseconds{static_cast<std::int64_t>(
            span_seconds * 1e6 * static_cast<double>(b) /
            static_cast<double>(batches))};
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch[i].ts = tmpl[i].ts + offset;
        }
        rollup.EmitBatch(batch.data(), batch.size());
      }
    });
    if (fold_secs != nullptr) {
      *fold_secs = secs;
      result.events_per_sec =
          secs > 0.0 ? static_cast<double>(rollup.events_folded()) / secs : 0.0;
    }
    if (rescales != nullptr) *rescales = rollup.rescales();
    return rollup.MemoryBytes();
  };

  double secs_1x = 0.0;
  result.rss_before = PeakRssBytes();
  result.memory_1x = fold_span(60.0, &secs_1x, nullptr);
  result.memory_10x = fold_span(600.0, nullptr, &result.rescales);
  result.rss_after_10x = PeakRssBytes();
  return result;
}

struct ColumnarResult {
  double write_events_per_sec = 0.0;
  double read_events_per_sec = 0.0;
  double bytes_per_event = 0.0;
  bool digest_match = false;
};

ColumnarResult BenchColumnar(std::uint64_t events) {
  ColumnarResult result;
  const std::vector<TraceEvent> tmpl = MakeTemplate(4096);
  std::ostringstream out;
  std::uint64_t written = 0;
  std::uint64_t write_digest = 0;
  const double write_secs = WallSeconds([&] {
    ColumnarWriter writer{out};
    for (std::uint64_t sent = 0; sent < events; sent += tmpl.size()) {
      writer.EmitBatch(tmpl.data(), tmpl.size());
    }
    writer.Finish();
    written = writer.events_written();
    write_digest = writer.digest();
  });
  result.write_events_per_sec =
      write_secs > 0.0 ? static_cast<double>(written) / write_secs : 0.0;
  result.bytes_per_event =
      written > 0 ? static_cast<double>(out.str().size()) / static_cast<double>(written)
                  : 0.0;

  std::istringstream in{out.str()};
  std::uint64_t read_count = 0;
  std::uint64_t read_digest = 0;
  const double read_secs = WallSeconds([&] {
    ColumnarReader reader{in};
    read_digest = reader.ForEach([&](const TraceEvent&) { ++read_count; });
  });
  result.read_events_per_sec =
      read_secs > 0.0 ? static_cast<double>(read_count) / read_secs : 0.0;
  result.digest_match = read_count == written && read_digest == write_digest;
  return result;
}

/// Collects a session's events, in emission order.
class VectorSink final : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

/// An ostream target that counts bytes and keeps one 64 KiB block, so
/// the writer is timed without a growing string behind it.
class CountingBuf final : public std::streambuf {
 public:
  CountingBuf() { setp(block_.data(), block_.data() + block_.size()); }
  [[nodiscard]] std::uint64_t bytes() const {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type ch) override {
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(block_.data(), block_.data() + block_.size());
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  std::array<char, 64 * 1024> block_{};
  std::uint64_t flushed_ = 0;
};

struct SessionStreamResult {
  std::size_t events = 0;
  double writer_ns_per_event = 0.0;
  double digest_ns_per_event = 0.0;
  double rollup_ns_per_event = 0.0;
  double bytes_per_event = 0.0;
  bool digest_match = false;  ///< standalone digest == the writer's footer digest
};

SessionStreamResult BenchSessionStream(std::chrono::seconds span) {
  VectorSink sink;
  {
    sim::Simulator simulator;
    obs::ObsSession::Options options;
    options.trace = false;
    options.extra_sink = &sink;
    obs::ObsSession observability{simulator, options};
    app::SessionConfig config;
    config.seed = 42;
    app::Session session{simulator, config};
    session.Run(span);
  }
  const std::vector<TraceEvent>& events = sink.events;
  SessionStreamResult result;
  result.events = events.size();
  const auto n = static_cast<double>(events.size());
  const auto median_ns = [&](const std::function<void()>& pass) {
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) ns.push_back(WallSeconds(pass) * 1e9 / n);
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
  };
  std::uint64_t writer_digest = 0;
  result.writer_ns_per_event = median_ns([&] {
    CountingBuf buf;
    std::ostream os{&buf};
    ColumnarWriter writer{os};
    writer.EmitBatch(events.data(), events.size());
    writer.Finish();
    writer_digest = writer.digest();
    result.bytes_per_event = static_cast<double>(buf.bytes()) / n;
  });
  result.digest_ns_per_event = median_ns([&] {
    EventStreamDigest digest;
    for (const TraceEvent& e : events) digest.Add(e);
    result.digest_match = digest.value() == writer_digest;
  });
  result.rollup_ns_per_event = median_ns([&] {
    TimeBucketRollup rollup;
    rollup.EmitBatch(events.data(), events.size());
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_telemetry.json";
  bool smoke = false;
  std::string git_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--git-rev=", 0) == 0) {
      git_rev = arg.substr(std::strlen("--git-rev="));
    } else {
      out_path = arg;
    }
  }

  // Smoke sizing keeps CI under a second; full sizing gives stable rates.
  const std::uint64_t ring_events = smoke ? 1u << 19 : 1u << 23;
  const std::uint64_t rollup_events = smoke ? 1u << 19 : 1u << 22;
  const std::uint64_t columnar_events = smoke ? 1u << 18 : 1u << 21;

  std::cout << "== bench_telemetry" << (smoke ? " (smoke)" : "") << " ==\n";

  const RingIngestResult ring = BenchRingIngest(ring_events);
  std::cout << "ring_ingest: " << ring.events_per_sec / 1e6
            << " M events/s delivered (" << ring.producers << " producers, "
            << ring.shed << " shed), spsc ceiling "
            << ring.spsc_events_per_sec / 1e6 << " M events/s\n";

  const RollupResult rollup = BenchRollup(rollup_events);
  std::cout << "rollup: " << rollup.events_per_sec / 1e6
            << " M folds/s, memory 1x=" << rollup.memory_1x
            << " B, 10x horizon=" << rollup.memory_10x
            << " B (rescales=" << rollup.rescales << ")\n";

  const ColumnarResult columnar = BenchColumnar(columnar_events);
  std::cout << "columnar: write " << columnar.write_events_per_sec / 1e6
            << " M events/s, read " << columnar.read_events_per_sec / 1e6
            << " M events/s, " << columnar.bytes_per_event
            << " B/event, digest_match=" << (columnar.digest_match ? "yes" : "no")
            << "\n";

  const SessionStreamResult stream = BenchSessionStream(std::chrono::seconds{smoke ? 5 : 30});
  std::cout << "session_stream: " << stream.events << " events, writer "
            << stream.writer_ns_per_event << " ns/event (digest "
            << stream.digest_ns_per_event << "), rollup " << stream.rollup_ns_per_event
            << " ns/event, " << stream.bytes_per_event << " B/event\n";

  std::ofstream os{out_path};
  os << "{\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"build_type\": \"" << ATHENA_BUILD_TYPE << "\",\n";
  os << "  \"git_rev\": \"" << git_rev << "\",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"ring_ingest\": {\n";
  os << "    \"producers\": " << ring.producers << ",\n";
  os << "    \"events_per_sec\": " << ring.events_per_sec << ",\n";
  os << "    \"spsc_events_per_sec\": " << ring.spsc_events_per_sec << ",\n";
  os << "    \"delivered\": " << ring.delivered << ",\n";
  os << "    \"shed\": " << ring.shed << "\n";
  os << "  },\n";
  os << "  \"rollup\": {\n";
  os << "    \"events_per_sec\": " << rollup.events_per_sec << ",\n";
  os << "    \"memory_bytes_1x\": " << rollup.memory_1x << ",\n";
  os << "    \"memory_bytes_10x_horizon\": " << rollup.memory_10x << ",\n";
  os << "    \"rss_peak_before\": " << rollup.rss_before << ",\n";
  os << "    \"rss_peak_after_10x\": " << rollup.rss_after_10x << ",\n";
  os << "    \"rescales\": " << rollup.rescales << "\n";
  os << "  },\n";
  os << "  \"columnar\": {\n";
  os << "    \"write_events_per_sec\": " << columnar.write_events_per_sec << ",\n";
  os << "    \"read_events_per_sec\": " << columnar.read_events_per_sec << ",\n";
  os << "    \"bytes_per_event\": " << columnar.bytes_per_event << ",\n";
  os << "    \"digest_match\": " << (columnar.digest_match ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"session_stream\": {\n";
  os << "    \"events\": " << stream.events << ",\n";
  os << "    \"writer_ns_per_event\": " << stream.writer_ns_per_event << ",\n";
  os << "    \"digest_ns_per_event\": " << stream.digest_ns_per_event << ",\n";
  os << "    \"rollup_ns_per_event\": " << stream.rollup_ns_per_event << ",\n";
  os << "    \"bytes_per_event\": " << stream.bytes_per_event << ",\n";
  os << "    \"digest_match\": " << (stream.digest_match ? "true" : "false") << "\n";
  os << "  }\n";
  os << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // Smoke mode doubles as the CI gate: fail loudly on broken invariants.
  if (!columnar.digest_match || !stream.digest_match) return 1;
  if (rollup.memory_10x > rollup.memory_1x) return 1;
  return 0;
}
