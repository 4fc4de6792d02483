// Fault-injection layer tests: per-model behaviour, determinism of the
// (plan, seed) → impaired-stream mapping, the live interposer, the
// release-mode precondition checks, the telemetry_gap detector, and the
// chaos harness invariants.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "obs/live/detectors.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::Stream;
using sim::kEpoch;

/// A busy, regular telemetry stream: one round-0 TB per 2.5 ms slot.
std::vector<ran::TbRecord> MakeTelemetry(std::size_t n) {
  std::vector<ran::TbRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ran::TbRecord tb;
    tb.tb_id = i + 1;
    tb.chain_id = i + 1;
    tb.slot_time = kEpoch + i * 2500us;
    tb.tbs_bytes = 1500;
    tb.used_bytes = 1200;
    records.push_back(tb);
  }
  return records;
}

std::uint64_t DigestOf(const std::vector<ran::TbRecord>& records) {
  fault::InputDigest digest;
  digest.Mix(records);
  return digest.value();
}

TEST(FaultInjectorTest, InactivePlanIsPassThrough) {
  auto records = MakeTelemetry(100);
  const auto before = DigestOf(records);
  FaultInjector injector{FaultPlan{}, 7};
  injector.Apply(Stream::kTelemetry, records);
  EXPECT_EQ(DigestOf(records), before);
  EXPECT_EQ(injector.stats().For(Stream::kTelemetry).seen, 100u);
  EXPECT_EQ(injector.stats().total_faults(), 0u);
}

TEST(FaultInjectorTest, SamePlanAndSeedIsByteIdentical) {
  FaultPlan plan;
  auto& spec = plan.For(Stream::kTelemetry);
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  spec.reorder = 0.15;
  spec.delay = 0.1;
  spec.delay_min = 1ms;
  spec.delay_max = 10ms;
  spec.corrupt = 0.05;

  auto a = MakeTelemetry(500);
  auto b = MakeTelemetry(500);
  FaultInjector ia{plan, 1234};
  FaultInjector ib{plan, 1234};
  ia.Apply(Stream::kTelemetry, a);
  ib.Apply(Stream::kTelemetry, b);
  EXPECT_EQ(DigestOf(a), DigestOf(b));
  EXPECT_EQ(ia.stats().total_faults(), ib.stats().total_faults());

  // A different seed produces a different impairment of the same stream.
  auto c = MakeTelemetry(500);
  FaultInjector ic{plan, 1235};
  ic.Apply(Stream::kTelemetry, c);
  EXPECT_NE(DigestOf(a), DigestOf(c));
}

TEST(FaultInjectorTest, StreamsDrawFromIndependentSubStreams) {
  // Impairing the telemetry must not perturb the capture stream's draws:
  // applying them in either order yields the same capture output.
  FaultPlan plan;
  plan.For(Stream::kTelemetry).drop = 0.5;
  plan.For(Stream::kCoreCapture).drop = 0.5;

  std::vector<net::CaptureRecord> cap1, cap2;
  for (std::size_t i = 0; i < 300; ++i) {
    net::CaptureRecord r;
    r.packet_id = i + 1;
    r.local_ts = kEpoch + i * 1ms;
    r.size_bytes = 1200;
    cap1.push_back(r);
    cap2.push_back(r);
  }
  auto tele = MakeTelemetry(300);

  FaultInjector first{plan, 99};
  first.Apply(Stream::kTelemetry, tele);   // telemetry first
  first.Apply(Stream::kCoreCapture, cap1);

  FaultInjector second{plan, 99};
  second.Apply(Stream::kCoreCapture, cap2);  // capture first
  fault::InputDigest d1, d2;
  d1.Mix(cap1);
  d2.Mix(cap2);
  EXPECT_EQ(d1.value(), d2.value());
}

TEST(FaultInjectorTest, DropRateMatchesProbability) {
  FaultPlan plan;
  plan.For(Stream::kTelemetry).drop = 0.3;
  auto records = MakeTelemetry(10'000);
  FaultInjector injector{plan, 5};
  injector.Apply(Stream::kTelemetry, records);
  const auto& st = injector.stats().For(Stream::kTelemetry);
  EXPECT_NEAR(static_cast<double>(st.dropped) / 10'000.0, 0.3, 0.03);
  EXPECT_EQ(records.size(), 10'000u - st.dropped);
}

TEST(FaultInjectorTest, OutageRemovesOnlyTheWindow) {
  FaultPlan plan;
  plan.For(Stream::kTelemetry).outage_begin = kEpoch + 100ms;
  plan.For(Stream::kTelemetry).outage_end = kEpoch + 200ms;
  auto records = MakeTelemetry(200);  // 0 .. 497.5ms
  FaultInjector injector{plan, 5};
  injector.Apply(Stream::kTelemetry, records);
  for (const auto& tb : records) {
    EXPECT_TRUE(tb.slot_time < kEpoch + 100ms || tb.slot_time >= kEpoch + 200ms);
  }
  EXPECT_EQ(injector.stats().For(Stream::kTelemetry).outage_dropped, 40u);
}

TEST(FaultInjectorTest, TruncationCutsTheTailOfTheSpan) {
  FaultPlan plan;
  plan.For(Stream::kTelemetry).truncate_after_fraction = 0.5;
  auto records = MakeTelemetry(200);
  FaultInjector injector{plan, 5};
  injector.Apply(Stream::kTelemetry, records);
  ASSERT_FALSE(records.empty());
  const sim::TimePoint cutoff = kEpoch + (199 * 2500us).count() / 2 * 1us;
  for (const auto& tb : records) EXPECT_LE(tb.slot_time, cutoff);
  EXPECT_GT(injector.stats().For(Stream::kTelemetry).truncated, 90u);
}

TEST(FaultInjectorTest, ReorderDisplacementIsBounded) {
  FaultPlan plan;
  plan.For(Stream::kTelemetry).reorder = 1.0;
  plan.For(Stream::kTelemetry).reorder_depth = 4;
  auto records = MakeTelemetry(300);
  FaultInjector injector{plan, 11};
  injector.Apply(Stream::kTelemetry, records);
  ASSERT_EQ(records.size(), 300u);  // reordering never loses records

  // Every record may land at most reorder_depth positions late and, by
  // displacement symmetry, reorder_depth early.
  for (std::size_t pos = 0; pos < records.size(); ++pos) {
    const auto original = static_cast<std::int64_t>(records[pos].tb_id) - 1;
    const auto delta = std::llabs(static_cast<std::int64_t>(pos) - original);
    EXPECT_LE(delta, 4 + 4) << "tb " << records[pos].tb_id << " at " << pos;
  }
}

TEST(FaultInjectorTest, ClockStepShiftsRecordsAtAndAfterTheStep) {
  FaultPlan plan;
  plan.For(Stream::kTelemetry).clock_step = 15ms;
  plan.For(Stream::kTelemetry).clock_step_at = kEpoch + 250ms;
  auto records = MakeTelemetry(200);
  FaultInjector injector{plan, 5};
  injector.Apply(Stream::kTelemetry, records);
  for (const auto& tb : records) {
    const auto original = kEpoch + (tb.tb_id - 1) * 2500us;
    if (original >= kEpoch + 250ms) {
      EXPECT_EQ(tb.slot_time, original + 15ms);
    } else {
      EXPECT_EQ(tb.slot_time, original);
    }
  }
  EXPECT_GT(injector.stats().For(Stream::kTelemetry).clock_stepped, 0u);
}

TEST(FaultInjectorTest, CorruptedRecordsStayConsumable) {
  FaultPlan plan;
  plan.For(Stream::kTelemetry).corrupt = 1.0;
  auto records = MakeTelemetry(500);
  FaultInjector injector{plan, 21};
  injector.Apply(Stream::kTelemetry, records);
  ASSERT_EQ(records.size(), 500u);
  EXPECT_EQ(injector.stats().For(Stream::kTelemetry).corrupted, 500u);
  for (const auto& tb : records) {
    EXPECT_LE(tb.used_bytes, tb.tbs_bytes);  // wrong values, never invalid ones
  }
}

TEST(FaultInjectorTest, WrapDropsDuplicatesAndDelaysDeterministically) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    FaultPlan plan;
    auto& spec = plan.For(Stream::kPackets);
    spec.drop = 0.3;
    spec.duplicate = 0.2;
    spec.delay = 0.2;
    spec.delay_min = 1ms;
    spec.delay_max = 5ms;
    FaultInjector injector{plan, seed};

    std::vector<std::uint64_t> delivered;
    net::PacketHandler wrapped = injector.Wrap(
        sim, [&](const net::Packet& p) { delivered.push_back(p.id); });
    for (std::uint64_t i = 0; i < 200; ++i) {
      sim.ScheduleAt(kEpoch + i * 1ms, [&, i] {
        net::Packet p;
        p.id = i + 1;
        p.size_bytes = 1200;
        wrapped(p);
      });
    }
    sim.RunFor(1s);
    return delivered;
  };

  const auto a = run_once(77);
  const auto b = run_once(77);
  EXPECT_EQ(a, b);  // same seed → identical impaired delivery sequence
  EXPECT_LT(a.size(), 200u + 60u);
  EXPECT_GT(a.size(), 100u);  // drops happened, but far from everything

  const auto c = run_once(78);
  EXPECT_NE(a, c);
}

// --- release-mode precondition checks (satellite: no assert-only guards) ---

TEST(EventQueueCheckDeathTest, PopOnEmptyQueueAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::EventQueue queue;
  EXPECT_DEATH(queue.PopNext(), "ATHENA_CHECK failed");
  EXPECT_DEATH((void)queue.next_time(), "ATHENA_CHECK failed");
}

TEST(EventQueueCheckDeathTest, EmptyCallbackIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::EventQueue queue;
  EXPECT_DEATH(queue.Schedule(kEpoch, sim::EventQueue::Callback{}),
               "ATHENA_CHECK failed");
}

// --- the telemetry_gap detector (degradation contract, live side) ---

obs::live::TbObservation Tb(sim::TimePoint t, std::uint32_t used) {
  obs::live::TbObservation tb;
  tb.slot_time = t;
  tb.tbs_bytes = 1500;
  tb.used_bytes = used;
  return tb;
}

obs::live::Delivery Deliver(sim::TimePoint t, std::uint32_t bytes) {
  obs::live::Delivery d;
  d.packet_id = static_cast<std::uint64_t>(t.us());
  d.enqueued_at = t;
  d.delivered_at = t;
  d.bytes = bytes;
  return d;
}

TEST(TelemetryGapDetectorTest, QuietOnAHealthyFeed) {
  obs::live::DetectorBank bank;
  // TBs and deliveries interleaved, bytes conserved.
  for (int i = 0; i < 2000; ++i) {
    const sim::TimePoint t = kEpoch + i * 2500us;
    bank.OnTb(Tb(t, 1200));
    bank.OnDelivery(Deliver(t + 500us, 1200));
  }
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kTelemetryGap), 0u);
}

TEST(TelemetryGapDetectorTest, FiresWhenTheFeedGoesSilentUnderTraffic) {
  obs::live::DetectorBank bank;
  for (int i = 0; i < 200; ++i) {
    const sim::TimePoint t = kEpoch + i * 2500us;
    bank.OnTb(Tb(t, 1200));
    bank.OnDelivery(Deliver(t + 500us, 1200));
  }
  // The sniffer dies; the RAN keeps delivering.
  const sim::TimePoint silence = kEpoch + 200 * 2500us;
  for (int i = 0; i < 200; ++i) {
    bank.OnDelivery(Deliver(silence + i * 2500us, 1200));
  }
  EXPECT_GE(bank.anomaly_count(obs::live::AnomalyKind::kTelemetryGap), 1u);
}

TEST(TelemetryGapDetectorTest, FiresOnAByteConservationDeficit) {
  obs::live::DetectorBank bank;
  // No long silence — the feed ticks every slot — but the observed TBs
  // only account for half the delivered bytes (random record loss).
  for (int i = 0; i < 2000; ++i) {
    const sim::TimePoint t = kEpoch + i * 2500us;
    bank.OnTb(Tb(t, 600));
    bank.OnDelivery(Deliver(t + 500us, 1200));
  }
  EXPECT_GE(bank.anomaly_count(obs::live::AnomalyKind::kTelemetryGap), 1u);
}

// --- chaos harness invariants ---

TEST(ChaosTest, CatalogHasTheContractedBreadth) {
  const auto scenarios = fault::BuiltinScenarios();
  EXPECT_GE(scenarios.size(), 8u);
  EXPECT_NE(fault::FindScenario(scenarios, "clean_baseline"), nullptr);
  EXPECT_EQ(fault::FindScenario(scenarios, "no_such_scenario"), nullptr);
}

TEST(ChaosTest, CleanBaselineStaysPristine) {
  const auto scenarios = fault::BuiltinScenarios();
  const auto* clean = fault::FindScenario(scenarios, "clean_baseline");
  ASSERT_NE(clean, nullptr);
  const fault::ChaosOutcome o = fault::RunChaosScenario(*clean, 42);
  EXPECT_TRUE(o.ok()) << o.failure;
  const fault::SessionEvidence& e = o.session();
  EXPECT_FALSE(e.health_degraded);
  EXPECT_EQ(e.faults_injected, 0u);
  EXPECT_EQ(e.telemetry_gap_anomalies, 0u);
  EXPECT_GT(e.packets_correlated, 0u);
}

TEST(ChaosTest, LossyScenarioReportsDegradationLoudly) {
  const auto scenarios = fault::BuiltinScenarios();
  const auto* drop = fault::FindScenario(scenarios, "telemetry_drop");
  ASSERT_NE(drop, nullptr);
  const fault::ChaosOutcome o = fault::RunChaosScenario(*drop, 42);
  EXPECT_TRUE(o.ok()) << o.failure;
  const fault::SessionEvidence& e = o.session();
  EXPECT_TRUE(e.health_degraded);
  EXPECT_GE(e.telemetry_gap_anomalies, 1u);
  EXPECT_LT(e.mean_match_confidence, 0.95);
  EXPECT_GT(e.faults_injected, 0u);
}

TEST(ChaosTest, MatrixIsIdenticalForAnyJobCount) {
  auto scenarios = fault::BuiltinScenarios();
  scenarios.resize(3);  // clean + two lossy plans keeps this test quick
  const auto serial = fault::RunChaosMatrix(scenarios, 42, 2, 1);
  const auto parallel = fault::RunChaosMatrix(scenarios, 42, 2, 4);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].digest, parallel.outcomes[i].digest) << i;
    EXPECT_EQ(serial.outcomes[i].scenario, parallel.outcomes[i].scenario);
    EXPECT_EQ(serial.outcomes[i].ok(), parallel.outcomes[i].ok());
  }
}

}  // namespace
}  // namespace athena
