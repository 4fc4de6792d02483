// Micro-benchmarks (google-benchmark) for the hot paths: the event queue,
// the RAN slot machinery, GCC's per-feedback work, the correlator, and the
// jitter buffer. These guard the "simulate 20-minute calls in seconds"
// property that the figure benches rely on.
#include <benchmark/benchmark.h>

#include <chrono>

#include "app/session.hpp"
#include "cc/gcc.hpp"
#include "core/correlator.hpp"
#include "legacy_event_queue.hpp"
#include "media/jitter_buffer.hpp"
#include "obs/trace.hpp"
#include "queue_workload.hpp"
#include "rtp/packetizer.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace athena;
using namespace std::chrono_literals;
using sim::kEpoch;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.ScheduleAfter(sim::Duration{i % 997}, [] {});
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// 50k items (more than kQueueWorkloadDepth) so the steady-state
// schedule/cancel/pop interleave engages — the same parameters the
// committed BENCH_perf.json speedup is measured with.
void BM_EventQueueMixNew(benchmark::State& state) {
  std::uint64_t counter = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    bench::QueueWorkload(q, &counter, 50'000);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_EventQueueMixNew);

void BM_EventQueueMixLegacy(benchmark::State& state) {
  std::uint64_t counter = 0;
  for (auto _ : state) {
    bench::legacy::EventQueue q;
    bench::QueueWorkload(q, &counter, 50'000);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_EventQueueMixLegacy);

void BM_TraceEmitInstant(benchmark::State& state) {
  // Cost of one enabled emit: POD fill + interned-id store + chunk append.
  obs::TraceRecorder recorder;
  obs::ScopedTraceSink scope{&recorder};
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::TraceInstant(obs::Layer::kNet, obs::names::kPktHop,
                      kEpoch + sim::Duration{static_cast<std::int64_t>(i)},
                      {{"packet", static_cast<double>(i)}, {"bytes", 1200.0}});
    ++i;
    if (recorder.size() >= 1'000'000) recorder.Clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_TraceEmitInstant);

void BM_PeriodicTimerTicks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t ticks = 0;
    sim::PeriodicTimer timer{sim, sim::Duration{100}, [&] { ++ticks; }};
    timer.Start();
    sim.RunUntil(kEpoch + 1s);
    benchmark::DoNotOptimize(ticks);
  }
}
BENCHMARK(BM_PeriodicTimerTicks);

void BM_Packetizer(benchmark::State& state) {
  net::PacketIdGenerator ids;
  rtp::TransportSequencer seq;
  rtp::Packetizer packetizer{{.ssrc = 1, .flow = 1}, ids, seq};
  std::uint64_t frame_id = 1;
  for (auto _ : state) {
    const auto packets = packetizer.Packetize(
        rtp::MediaUnit{.frame_id = frame_id++, .payload_bytes = 8000}, kEpoch);
    benchmark::DoNotOptimize(packets.size());
  }
}
BENCHMARK(BM_Packetizer);

void BM_GccFeedbackBatch(benchmark::State& state) {
  cc::GoogCc::Config config;
  config.keep_history = false;
  cc::GoogCc gcc{config};
  std::uint16_t seq = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    std::vector<rtp::PacketReport> reports;
    reports.reserve(16);
    for (int i = 0; i < 16; ++i) {
      t += 7'000;
      reports.push_back(rtp::PacketReport{
          .transport_seq = seq++,
          .send_ts = kEpoch + sim::Duration{t},
          .recv_ts = kEpoch + sim::Duration{t + 20'000 + (t % 5000)},
          .size_bytes = 1200,
      });
    }
    benchmark::DoNotOptimize(gcc.OnFeedback(reports, kEpoch + sim::Duration{t}));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_GccFeedbackBatch);

void BM_JitterBuffer(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    media::JitterBuffer jb{sim, media::JitterBuffer::Config{}};
    jb.set_render_callback([](const media::RenderedFrame&) {});
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAfter(sim::Duration{i * 33'000}, [&jb, i] {
        net::Packet p;
        p.id = static_cast<net::PacketId>(i + 1);
        p.kind = net::PacketKind::kRtpVideo;
        p.size_bytes = 1200;
        p.rtp = net::RtpMeta{.frame_id = static_cast<std::uint64_t>(i) * 2 + 1,
                             .media_ts = static_cast<std::uint32_t>(i) * 2970,
                             .packets_in_frame = 1,
                             .packet_index_in_frame = 0,
                             .marker = true};
        jb.OnPacket(p);
      });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(jb.frames_rendered());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_JitterBuffer);

void BM_RanUplinkSecondOfTraffic(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    ran::RanUplink ran{sim, ran::RanConfig::PaperCell(),
                       ran::ChannelModel{{.base_bler = 0.08}, sim::Rng{1}},
                       ran::CrossTraffic::Idle(sim::Rng{2})};
    ran.set_core_sink([](const net::Packet&) {});
    ran.Start();
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAfter(sim::Duration{i * 10'000}, [&ran, i, &sim] {
        net::Packet p;
        p.id = static_cast<net::PacketId>(i + 1);
        p.size_bytes = 1200;
        p.created_at = sim.Now();
        ran.SendFromUe(p);
      });
    }
    sim.RunUntil(kEpoch + 1s);
    benchmark::DoNotOptimize(ran.counters().packets_delivered);
  }
}
BENCHMARK(BM_RanUplinkSecondOfTraffic);

void BM_CorrelatorPerPacket(benchmark::State& state) {
  // One session's logs, correlated repeatedly.
  sim::Simulator sim;
  app::SessionConfig config;
  config.channel.base_bler = 0.08;
  app::Session session{sim, config};
  session.Run(10s);
  const auto input = session.BuildCorrelatorInput();
  for (auto _ : state) {
    const auto data = core::Correlator::Correlate(input);
    benchmark::DoNotOptimize(data.packets.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(input.sender.size()));
}
BENCHMARK(BM_CorrelatorPerPacket);

void BM_FullSessionSecond(benchmark::State& state) {
  // End-to-end cost of one simulated second of a full Fig. 2 session.
  for (auto _ : state) {
    sim::Simulator sim;
    app::SessionConfig config;
    config.channel.base_bler = 0.08;
    app::Session session{sim, config};
    session.Run(1s);
    benchmark::DoNotOptimize(session.core_capture().count());
  }
}
BENCHMARK(BM_FullSessionSecond);

}  // namespace

BENCHMARK_MAIN();
