// Ground-truth tests for the live diagnosis engine (obs/live/): each
// detector gets a scripted scenario that must fire it (with the right
// layer attribution) and a contrasting quiet scenario that must not,
// plus end-to-end sessions, event-log semantics, the Prometheus
// exposition edge cases, and the health report.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "app/session.hpp"
#include "obs/live/anomaly.hpp"
#include "obs/live/detectors.hpp"
#include "obs/live/health.hpp"
#include "obs/live/live.hpp"
#include "obs/obs.hpp"
#include "obs/prom_text.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace athena;
using namespace athena::obs::live;
using namespace std::chrono_literals;
using obs::prom::SanitizeMetricName;
using obs::prom::WritePrometheus;

sim::TimePoint At(double ms) { return sim::TimePoint{sim::FromMs(ms)}; }

/// A bank that records every emitted anomaly for inspection.
struct CapturingBank {
  explicit CapturingBank(DetectorConfig config = {}) : bank(config) {
    bank.set_on_anomaly([this](const AnomalyEvent& e) { events.push_back(e); });
  }
  DetectorBank bank;
  std::vector<AnomalyEvent> events;
};

// ---------------------------------------------------------------------------
// SlotQuantizationDetector
// ---------------------------------------------------------------------------

TEST(LiveDetectors, SlotQuantizationFiresOnGridAlignedArrivals) {
  CapturingBank cap;
  // Successive deliveries spaced by exact multiples of the 2.5 ms UL slot
  // period: every inter-arrival phase lands in one bin.
  sim::TimePoint t = At(10.0);
  for (int i = 0; i < 80; ++i) {
    t += sim::FromMs(2.5 * (1 + i % 3));
    cap.bank.OnDelivery({static_cast<std::uint64_t>(i), t - sim::FromMs(4.0), t, 1200});
  }
  EXPECT_GE(cap.bank.anomaly_count(AnomalyKind::kDelaySpreadQuantization), 1u);
  ASSERT_FALSE(cap.events.empty());
  const AnomalyEvent& e = cap.events.front();
  EXPECT_EQ(e.kind, AnomalyKind::kDelaySpreadQuantization);
  EXPECT_EQ(e.layer, obs::Layer::kRan);
  EXPECT_STREQ(e.detector, "slot_quantization");
  EXPECT_GE(e.confidence, 0.5);
  EXPECT_LT(e.window_begin, e.window_end);
}

TEST(LiveDetectors, SlotQuantizationQuietOnSpreadArrivals) {
  CapturingBank cap;
  // Phases cycle uniformly through every bin (250 µs steps over a
  // 2500 µs period): a wire-like smooth arrival process.
  sim::TimePoint t = At(10.0);
  for (int i = 0; i < 200; ++i) {
    t += sim::Duration{5000 + (i * 250) % 2500};
    cap.bank.OnDelivery({static_cast<std::uint64_t>(i), t - sim::FromMs(4.0), t, 1200});
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kDelaySpreadQuantization), 0u);
}

// ---------------------------------------------------------------------------
// HarqRtxDetector
// ---------------------------------------------------------------------------

TEST(LiveDetectors, HarqRtxFiresWhenChainsExplainDelaySteps) {
  CapturingBank cap;
  // Baseline: 20 deliveries at a steady 5 ms OWD establish the floor.
  sim::TimePoint t = At(0.0);
  std::uint64_t id = 0;
  for (int i = 0; i < 20; ++i) {
    t += sim::FromMs(20.0);
    cap.bank.OnDelivery({id++, t - sim::FromMs(5.0), t, 1200});
  }
  // Forced HARQ: six late packets, each ~10 ms over the floor, each
  // preceded by a retransmitted chain completing just before delivery.
  for (int i = 0; i < 6; ++i) {
    t += sim::FromMs(30.0);
    cap.bank.OnHarqChain({t - sim::FromMs(11.0), t - sim::FromMs(1.0), 1, false});
    cap.bank.OnDelivery({id++, t - sim::FromMs(15.0), t, 1200});
  }
  EXPECT_GE(cap.bank.anomaly_count(AnomalyKind::kHarqRtxInflation), 1u);
  ASSERT_FALSE(cap.events.empty());
  EXPECT_EQ(cap.events.front().layer, obs::Layer::kRan);
  EXPECT_STREQ(cap.events.front().detector, "harq_rtx");
}

TEST(LiveDetectors, HarqRtxQuietWhenNoChainExplainsTheSteps) {
  CapturingBank cap;
  sim::TimePoint t = At(0.0);
  std::uint64_t id = 0;
  for (int i = 0; i < 20; ++i) {
    t += sim::FromMs(20.0);
    cap.bank.OnDelivery({id++, t - sim::FromMs(5.0), t, 1200});
  }
  // The same late packets, but no HARQ chain in sight: suspect, never
  // attributed, so the detector must stay silent.
  for (int i = 0; i < 10; ++i) {
    t += sim::FromMs(30.0);
    cap.bank.OnDelivery({id++, t - sim::FromMs(15.0), t, 1200});
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kHarqRtxInflation), 0u);
  // ...but the attribution tally still shows the unexplained suspects.
  const auto& detectors = cap.bank.detectors();
  for (const auto& d : detectors) {
    if (std::string{d->name()} == "harq_rtx") {
      EXPECT_GE(d->attribution().suspect, 10u);
      EXPECT_EQ(d->attribution().attributed, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// BsrGrantWaitDetector
// ---------------------------------------------------------------------------

TEST(LiveDetectors, BsrGrantWaitFiresOnSlowFirstService) {
  CapturingBank cap;
  // Ten backlog episodes, each served ~10 ms (one BSR scheduling delay)
  // after the buffer left zero.
  double base = 0.0;
  for (int i = 0; i < 10; ++i) {
    cap.bank.OnBacklog({At(base), 8000.0});
    cap.bank.OnTb({At(base + 10.0), 2500, 1500, 0, true, true});
    cap.bank.OnBacklog({At(base + 11.0), 0.0});
    base += 50.0;
  }
  EXPECT_GE(cap.bank.anomaly_count(AnomalyKind::kBsrGrantWait), 1u);
  ASSERT_FALSE(cap.events.empty());
  EXPECT_EQ(cap.events.front().kind, AnomalyKind::kBsrGrantWait);
  EXPECT_EQ(cap.events.front().layer, obs::Layer::kRan);
}

TEST(LiveDetectors, BsrGrantWaitQuietWhenProactiveGrantsServeNextSlot) {
  CapturingBank cap;
  // The mitigation scenario: every burst served one slot (2.5 ms) later.
  double base = 0.0;
  for (int i = 0; i < 20; ++i) {
    cap.bank.OnBacklog({At(base), 8000.0});
    cap.bank.OnTb({At(base + 2.5), 2500, 1500, 0, true, false});
    cap.bank.OnBacklog({At(base + 3.0), 0.0});
    base += 50.0;
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kBsrGrantWait), 0u);
}

// ---------------------------------------------------------------------------
// OverGrantingDetector
// ---------------------------------------------------------------------------

TEST(LiveDetectors, OverGrantingFiresOnWastedRequestedGrants) {
  CapturingBank cap;
  // An over-granted UE: 2500-byte requested grants carrying 100 bytes.
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 40; ++i) {
    t += sim::FromMs(2.5);
    cap.bank.OnTb({t, 2500, 100, 0, true, true});
  }
  EXPECT_GE(cap.bank.anomaly_count(AnomalyKind::kOverGranting), 1u);
  ASSERT_FALSE(cap.events.empty());
  EXPECT_EQ(cap.events.front().kind, AnomalyKind::kOverGranting);
  EXPECT_EQ(cap.events.front().layer, obs::Layer::kRan);
  EXPECT_GT(cap.events.front().confidence, 0.5);  // ≈ 96% waste
}

TEST(LiveDetectors, OverGrantingIgnoresProactiveGrants) {
  CapturingBank cap;
  // A quiet cell: the scheduler's always-on proactive grants go out
  // mostly empty *by design* — that must not read as over-granting.
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 400; ++i) {
    t += sim::FromMs(2.5);
    cap.bank.OnTb({t, 2500, 0, 0, true, false});
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kOverGranting), 0u);
}

TEST(LiveDetectors, OverGrantingQuietWhenGrantsAreUsed) {
  CapturingBank cap;
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 100; ++i) {
    t += sim::FromMs(2.5);
    cap.bank.OnTb({t, 2500, 2400, 0, true, true});
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kOverGranting), 0u);
}

// ---------------------------------------------------------------------------
// QueueBuildupDetector
// ---------------------------------------------------------------------------

TEST(LiveDetectors, QueueBuildupFiresWhenBacklogNeverDrains) {
  CapturingBank cap;
  // Injected cross traffic: the RLC buffer floats above 20 kB for the
  // whole window — a standing queue.
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 80; ++i) {
    t += sim::FromMs(2.5);
    cap.bank.OnBacklog({t, 20000.0 + 1000.0 * (i % 7)});
  }
  EXPECT_GE(cap.bank.anomaly_count(AnomalyKind::kQueueBuildup), 1u);
  ASSERT_FALSE(cap.events.empty());
  EXPECT_EQ(cap.events.front().kind, AnomalyKind::kQueueBuildup);
  EXPECT_EQ(cap.events.front().layer, obs::Layer::kRan);
}

TEST(LiveDetectors, QueueBuildupQuietWhenBufferTouchesZero) {
  CapturingBank cap;
  // Bursty but draining: deep bursts that empty out — BSR territory,
  // not capacity contention.
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 200; ++i) {
    t += sim::FromMs(2.5);
    cap.bank.OnBacklog({t, (i % 10 == 0) ? 0.0 : 40000.0});
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kQueueBuildup), 0u);
}

TEST(LiveDetectors, CooldownBoundsAnomalyRate) {
  DetectorConfig config;
  config.cooldown = sim::Duration{10s};
  CapturingBank cap{config};
  // A persistent standing queue for a long stretch: without the
  // cooldown this would emit every 8 samples.
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 2000; ++i) {
    t += sim::FromMs(2.5);  // 5 s total — inside one cooldown window
    cap.bank.OnBacklog({t, 30000.0});
  }
  EXPECT_EQ(cap.bank.anomaly_count(AnomalyKind::kQueueBuildup), 1u);
}

// ---------------------------------------------------------------------------
// LiveEngine trace decoding
// ---------------------------------------------------------------------------

TEST(LiveEngine, DecodesTraceStreamIntoObservationsAndRollups) {
  LiveEngine engine;
  obs::ScopedTraceSink scope{&engine};

  obs::TraceAsyncSpan(obs::Layer::kRan, "ran.transit", 1, At(1.0), At(6.0),
                      {{"bytes", 1200.0}});
  obs::TraceAsyncSpan(obs::Layer::kRan, "ran.transit", 2, At(2.0), At(8.0),
                      {{"bytes", 300.0}});
  obs::TraceAsyncSpan(obs::Layer::kMedia, "frame.jb", 7, At(3.0), At(9.0),
                      {{"late", 1.0}});
  obs::TraceAsyncSpan(obs::Layer::kMedia, "frame.jb", 8, At(4.0), At(10.0),
                      {{"late", 0.0}});
  obs::TraceAsyncSpan(obs::Layer::kCore, "pkt.uplink", 1, At(1.0), At(6.0),
                      {{"cause", 3.0}});
  obs::TraceInstant(obs::Layer::kNet, "link.drop", At(5.0));
  obs::TraceInstant(obs::Layer::kCc, "cc.overuse", At(5.5), {{"trend_ms", 2.0}});
  obs::TraceCounter(obs::Layer::kRan, "ran.rlc_bytes", At(6.0), 1234.0);

  EXPECT_EQ(engine.deliveries(), 2u);
  EXPECT_EQ(engine.frames_rendered(), 2u);
  EXPECT_EQ(engine.frames_late(), 1u);
  EXPECT_EQ(engine.link_drops(), 1u);
  EXPECT_EQ(engine.overuse_events(), 1u);
  EXPECT_EQ(engine.core_cause_counts()[3], 1u);
}

TEST(LiveEngine, AnomaliesLandInTheEventLog) {
  LiveEngine::Options options;
  options.log_capacity = 8;
  LiveEngine engine{options};
  // Drive the over-granting scenario through the decoder.
  obs::ScopedTraceSink scope{&engine};
  for (int i = 0; i < 40; ++i) {
    obs::TraceInstant(obs::Layer::kRan, "tb.tx", At(2.5 * i),
                      {{"tbs", 2500.0},
                       {"used", 100.0},
                       {"round", 0.0},
                       {"crc_ok", 1.0},
                       {"grant", 1.0}});
  }
  EXPECT_GE(engine.bank().anomaly_count(AnomalyKind::kOverGranting), 1u);
  EXPECT_GE(engine.log().size(), 1u);
  const auto records = engine.log().Ordered();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front()->kind, AnomalyKind::kOverGranting);
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

AnomalyEvent MakeAnomaly(double at_ms, double confidence) {
  AnomalyEvent e;
  e.kind = AnomalyKind::kQueueBuildup;
  e.layer = obs::Layer::kRan;
  e.window_begin = At(at_ms - 1.0);
  e.window_end = At(at_ms);
  e.confidence = confidence;
  e.detector = "test";
  e.message = "synthetic";
  e.AddEvidence("k", 1.0);
  return e;
}

TEST(EventLog, RingOverwritesOldestAndCountsDrops) {
  EventLog log{4};
  for (int i = 0; i < 10; ++i) {
    log.PushAnomaly(MakeAnomaly(static_cast<double>(i), 0.5));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.total_pushed(), 10u);
  EXPECT_EQ(log.dropped_count(), 6u);
  const auto records = log.Ordered();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first ordering of the surviving tail (6, 7, 8, 9).
  EXPECT_EQ(records.front()->window_end, At(6.0));
  EXPECT_EQ(records.back()->window_end, At(9.0));
}

TEST(EventLog, WriteJsonlWritesTheRetainedAnomaliesOldestFirst) {
  EventLog log{2};
  for (int i = 0; i < 5; ++i) {
    log.PushAnomaly(MakeAnomaly(static_cast<double>(i), 0.25));
  }
  std::ostringstream os;
  log.WriteJsonl(os);

  std::istringstream lines{os.str()};
  std::vector<std::string> got;
  for (std::string line; std::getline(lines, line);) got.push_back(line);
  ASSERT_EQ(got.size(), 2u);  // the ring's two survivors, not all five pushes
  for (const std::string& line : got) {
    EXPECT_EQ(line.rfind("{\"type\":\"anomaly\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_NE(got[0].find("\"window_end_us\":3000,"), std::string::npos) << got[0];
  EXPECT_NE(got[1].find("\"window_end_us\":4000,"), std::string::npos) << got[1];
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(Exposition, SanitizesMetricNames) {
  EXPECT_EQ(SanitizeMetricName("cc.target-bps"), "cc_target_bps");
  EXPECT_EQ(SanitizeMetricName("ran.tb_tx"), "ran_tb_tx");
  EXPECT_EQ(SanitizeMetricName("5g.delay"), "_5g_delay");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("a:b"), "a:b");  // colons are legal
}

TEST(Exposition, EmptyRegistryStillProducesValidOutput) {
  obs::MetricsRegistry registry;
  std::ostringstream os;
  WritePrometheus(os, registry);
  const std::string out = os.str();
  EXPECT_FALSE(out.empty());
  // Comment-only output: every line starts with '#'.
  std::istringstream lines{out};
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '#');
  }
}

TEST(Exposition, RendersCountersGaugesAndNonFiniteValues) {
  obs::MetricsRegistry registry;
  registry.Counter("ran.tb-tx") = 17;
  registry.Gauge("cc.target.bps") = 5e5;
  registry.Gauge("weird.inf") = std::numeric_limits<double>::infinity();
  registry.Gauge("weird.neg_inf") = -std::numeric_limits<double>::infinity();
  registry.Gauge("weird.nan") = std::nan("");

  std::ostringstream os;
  WritePrometheus(os, registry);
  const std::string out = os.str();
  EXPECT_NE(out.find("athena_ran_tb_tx 17\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE athena_ran_tb_tx counter"), std::string::npos);
  EXPECT_NE(out.find("athena_cc_target_bps 500000\n"), std::string::npos);
  EXPECT_NE(out.find("athena_weird_inf +Inf\n"), std::string::npos);
  EXPECT_NE(out.find("athena_weird_neg_inf -Inf\n"), std::string::npos);
  EXPECT_NE(out.find("athena_weird_nan NaN\n"), std::string::npos);
  // No unsanitized names escape.
  EXPECT_EQ(out.find("ran.tb-tx"), std::string::npos);
}

TEST(Exposition, HistogramBucketsAreCumulativeAndEndAtInf) {
  obs::MetricsRegistry registry;
  auto& h = registry.Histogram("owd.ms", 0.0, 10.0, 2);
  h.Add(1.0);    // bin [0,5)
  h.Add(6.0);    // bin [5,10)
  h.Add(100.0);  // overflow
  h.Add(-3.0);   // underflow → folded into the first bucket

  std::ostringstream os;
  WritePrometheus(os, registry);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE athena_owd_ms histogram"), std::string::npos);
  EXPECT_NE(out.find("athena_owd_ms_bucket{le=\"5\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("athena_owd_ms_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("athena_owd_ms_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(out.find("athena_owd_ms_count 4\n"), std::string::npos);
  EXPECT_NE(out.find("athena_owd_ms_sum 104\n"), std::string::npos);
}

TEST(Exposition, RunningStatsBecomeSummaries) {
  obs::MetricsRegistry registry;
  auto& s = registry.Stats("jitter.ms");
  s.Add(1.0);
  s.Add(3.0);

  std::ostringstream os;
  WritePrometheus(os, registry);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE athena_jitter_ms summary"), std::string::npos);
  EXPECT_NE(out.find("athena_jitter_ms_count 2\n"), std::string::npos);
  EXPECT_NE(out.find("athena_jitter_ms_sum 4\n"), std::string::npos);
  EXPECT_NE(out.find("athena_jitter_ms_mean 2\n"), std::string::npos);
  EXPECT_NE(out.find("athena_jitter_ms_min 1\n"), std::string::npos);
  EXPECT_NE(out.find("athena_jitter_ms_max 3\n"), std::string::npos);
}

TEST(Exposition, IncludesLiveDetectorState) {
  obs::MetricsRegistry registry;
  LiveEngine engine;
  std::ostringstream os;
  WritePrometheus(os, registry, nullptr, &engine);
  const std::string out = os.str();
  // One series per anomaly kind, plus engine gauges — present even at zero.
  EXPECT_NE(out.find("athena_anomalies_total{kind=\"delay_spread_quantization\","
                     "layer=\"ran\"} 0"),
            std::string::npos);
  EXPECT_NE(out.find("athena_anomalies_total{kind=\"harq_rtx_inflation\","
                     "layer=\"ran\"} 0"),
            std::string::npos);
  EXPECT_NE(out.find("athena_detector_confidence{detector=\"slot_quantization\"}"),
            std::string::npos);
  EXPECT_NE(out.find("athena_event_log_records 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HealthReport
// ---------------------------------------------------------------------------

TEST(HealthReport, RanksCausesAndRendersAttribution) {
  LiveEngine engine;
  // Over-granting scenario via the bank (stronger than queue buildup's
  // single anomaly thanks to a shorter eval stride + cooldown reset).
  sim::TimePoint t = At(0.0);
  for (int i = 0; i < 700; ++i) {
    t += sim::FromMs(2.5);
    engine.bank().OnTb({t, 2500, 100, 0, true, true});
  }
  const HealthReport report = HealthReport::Build(engine);
  EXPECT_FALSE(report.healthy());
  ASSERT_FALSE(report.causes.empty());
  EXPECT_EQ(report.causes.front().kind, AnomalyKind::kOverGranting);
  EXPECT_GT(report.causes.front().anomalies, 0u);
  EXPECT_FALSE(report.causes.front().summary.empty());

  std::ostringstream os;
  report.Render(os);
  EXPECT_NE(os.str().find("root causes, ranked:"), std::string::npos);
  EXPECT_NE(os.str().find("over-granting"), std::string::npos);
}

TEST(HealthReport, HealthySessionSaysSo) {
  LiveEngine engine;
  const HealthReport report = HealthReport::Build(engine);
  EXPECT_TRUE(report.healthy());
  std::ostringstream os;
  report.Render(os);
  EXPECT_NE(os.str().find("healthy"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end sessions
// ---------------------------------------------------------------------------

TEST(LiveEndToEnd, QuietEmulatedChannelRaisesNoAnomalies) {
  sim::Simulator simulator;
  obs::ObsSession::Options options;
  options.trace = false;
  options.live = true;
  obs::ObsSession observability{simulator, options};

  app::SessionConfig config;
  config.access = app::SessionConfig::Access::kEmulated;
  app::Session session{simulator, config};
  session.Run(10s);

  ASSERT_NE(observability.live(), nullptr);
  EXPECT_EQ(observability.live()->bank().anomaly_count(), 0u)
      << "false positive on a wire-like channel";
  EXPECT_GT(observability.live()->frames_rendered(), 0u);
}

TEST(LiveEndToEnd, FiveGSessionFiresSlotQuantization) {
  sim::Simulator simulator;
  obs::ObsSession::Options options;
  options.trace = false;
  options.live = true;
  obs::ObsSession observability{simulator, options};

  app::SessionConfig config;  // default: paper-cell 5G uplink
  app::Session session{simulator, config};
  session.Run(10s);

  ASSERT_NE(observability.live(), nullptr);
  EXPECT_GE(observability.live()->bank().anomaly_count(
                AnomalyKind::kDelaySpreadQuantization),
            1u);
  EXPECT_GT(observability.live()->deliveries(), 0u);
}

TEST(LiveEndToEnd, LossyFadingChannelFiresHarqDetector) {
  sim::Simulator simulator;
  obs::ObsSession::Options options;
  options.trace = false;
  options.live = true;
  obs::ObsSession observability{simulator, options};

  app::SessionConfig config;
  config.channel = ran::ChannelModel::FadingRadio();
  app::Session session{simulator, config};
  session.Run(15s);

  ASSERT_NE(observability.live(), nullptr);
  EXPECT_GE(
      observability.live()->bank().anomaly_count(AnomalyKind::kHarqRtxInflation),
      1u);
  const HealthReport report = HealthReport::Build(*observability.live());
  EXPECT_FALSE(report.healthy());
}

TEST(LiveEndToEnd, RecorderAndLiveEngineShareOneEmitStream) {
  sim::Simulator simulator;
  obs::ObsSession::Options options;
  options.trace = true;  // both sinks via the fanout
  options.live = true;
  obs::ObsSession observability{simulator, options};

  app::SessionConfig config;
  app::Session session{simulator, config};
  session.Run(5s);

  EXPECT_GT(observability.recorder().size(), 0u);
  ASSERT_NE(observability.live(), nullptr);
  EXPECT_GT(observability.live()->deliveries(), 0u);
}

}  // namespace
