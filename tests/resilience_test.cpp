// Resilience-layer tests: the restore-equals-uninterrupted determinism
// property across seeds × kill points, replay verification of forged
// snapshots, the one snapshot codec over session- and world-shaped
// snapshots (round trip + rejection of malformed bytes), watchdog stall
// detection and hard-stall reporting, bounded supervisor retries, the
// one recovery policy (forged checkpoints dropped, foreign ones refused
// up front), the overload governor's priority tiers, the trace
// recorder's byte budget, and the overload detector.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/live/detectors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_names.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/overload.hpp"
#include "resilience/supervisor.hpp"
#include "resilience/world_checkpoint.hpp"
#include "sim/check.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "world/engine.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
using resilience::BoundInput;
using resilience::Checkpoint;
using resilience::CheckpointError;
using resilience::CheckpointingDriver;
using resilience::MemoryBudget;
using resilience::ProcessFaultSpec;
using resilience::RunPlan;
using resilience::Supervisor;
using resilience::SupervisorOptions;
using sim::kEpoch;

RunPlan ShortPlan(std::uint64_t seed) {
  RunPlan plan;
  plan.config.seed = seed;
  plan.duration = 2s;
  plan.checkpoint_every = 250ms;
  return plan;
}

SupervisorOptions FastOptions() {
  SupervisorOptions options;
  options.watchdog = false;
  return options;
}

// --- the determinism property the whole subsystem exists for ---

TEST(CheckpointRestoreTest, RestoredRunIsByteIdenticalAcrossSeedsAndKillPoints) {
  const std::uint64_t seeds[] = {11, 22, 33};
  const sim::Duration kill_points[] = {600ms, 1000ms, 1500ms};
  for (const std::uint64_t seed : seeds) {
    const RunPlan plan = ShortPlan(seed);
    CheckpointingDriver reference{plan};
    const resilience::RunOutcome uninterrupted = reference.Run();
    ASSERT_GT(uninterrupted.events_executed, 0u);
    ASSERT_GT(uninterrupted.packets_correlated, 0u);

    for (const sim::Duration kill : kill_points) {
      ProcessFaultSpec faults;
      faults.kill_at = kEpoch + kill;
      Supervisor supervisor{plan, FastOptions()};
      const resilience::SupervisedOutcome sup = supervisor.Run(faults);

      ASSERT_TRUE(sup.completed) << "seed " << seed << " kill " << kill.count()
                                 << "us: " << sup.last_error;
      EXPECT_EQ(sup.crashes, 1);
      EXPECT_EQ(sup.restarts, 1);
      EXPECT_TRUE(sup.outcome.restored);
      EXPECT_EQ(sup.outcome.final_digest, uninterrupted.final_digest)
          << "seed " << seed << " kill " << kill.count() << "us";
      EXPECT_EQ(sup.outcome.report_digest, uninterrupted.report_digest);
      EXPECT_EQ(sup.outcome.report, uninterrupted.report);
      EXPECT_EQ(sup.outcome.events_executed, uninterrupted.events_executed);
    }
  }
}

TEST(CheckpointRestoreTest, RestoredRunKeepsCheckpointingOnTheSameGrid) {
  // A run restored at 1s must take its later snapshots at the same
  // absolute boundaries an uninterrupted run does — the grid is anchored
  // at t=0, not at the restore point.
  const RunPlan plan = ShortPlan(7);
  std::vector<sim::TimePoint> uninterrupted_times;
  {
    RunPlan p = plan;
    p.on_checkpoint = [&](const Checkpoint& c) {
      uninterrupted_times.push_back(c.virtual_time);
    };
    (void)CheckpointingDriver{p}.Run();
  }
  ASSERT_GE(uninterrupted_times.size(), 4u);

  ProcessFaultSpec faults;
  faults.kill_at = kEpoch + 1100ms;
  std::vector<sim::TimePoint> supervised_times;
  RunPlan p = plan;
  p.on_checkpoint = [&](const Checkpoint& c) {
    supervised_times.push_back(c.virtual_time);
  };
  Supervisor supervisor{p, FastOptions()};
  ASSERT_TRUE(supervisor.Run(faults).completed);
  // Every boundary the supervised run checkpointed at (before and after
  // the crash) lies on the uninterrupted run's grid.
  for (const sim::TimePoint t : supervised_times) {
    EXPECT_NE(std::find(uninterrupted_times.begin(), uninterrupted_times.end(), t),
              uninterrupted_times.end())
        << "off-grid checkpoint at " << t.us() << "us";
  }
}

// --- replay verification: identity checks and forged witnesses ---

/// The last checkpoint an uninterrupted run of `plan` takes.
Checkpoint LatestCheckpoint(RunPlan plan) {
  Checkpoint latest;
  plan.on_checkpoint = [&latest](const Checkpoint& c) { latest = c; };
  (void)CheckpointingDriver{plan}.Run();
  return latest;
}

TEST(CheckpointRestoreTest, RefusesToResumeUnderADifferentPlan) {
  // Same bytes, different seed: the replay would silently diverge, so
  // Resume must refuse up front.
  const Checkpoint latest = LatestCheckpoint(ShortPlan(5));
  CheckpointingDriver other{ShortPlan(6)};
  EXPECT_THROW((void)other.Resume(latest), CheckpointError);

  // The planned duration is part of the fingerprint.
  RunPlan longer = ShortPlan(5);
  longer.duration = 3s;
  CheckpointingDriver wrong_duration{longer};
  EXPECT_THROW((void)wrong_duration.Resume(latest), CheckpointError);
}

TEST(CheckpointRestoreTest, ForgedStateDigestFailsReplayVerification) {
  // A checksum-valid snapshot whose digest does not match the replay:
  // identity checks pass, so only the replay verification can catch it.
  const RunPlan plan = ShortPlan(5);
  Checkpoint forged = LatestCheckpoint(plan);
  forged.state_digest ^= 1;
  std::vector<std::uint8_t> bytes;
  forged.Serialize(bytes);
  const Checkpoint reloaded = Checkpoint::Deserialize(bytes.data(), bytes.size());

  CheckpointingDriver driver{plan};
  try {
    (void)driver.Resume(reloaded);
    FAIL() << "a forged state digest was accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    std::ostringstream forged_hex;
    forged_hex << std::hex << forged.state_digest;
    EXPECT_NE(what.find("replayed state digest"), std::string::npos) << what;
    EXPECT_NE(what.find(forged_hex.str()), std::string::npos) << what;
    EXPECT_NE(what.find(sim::ToString(forged.virtual_time)), std::string::npos) << what;
  }
}

TEST(CheckpointRestoreTest, SessionCheckpointSizeIsIndependentOfRunLength) {
  // A session snapshot is identity + boundary + digest: its size must not
  // grow with the telemetry the run has collected.
  RunPlan short_plan = ShortPlan(5);
  RunPlan long_plan = ShortPlan(5);
  long_plan.duration = 6s;
  long_plan.checkpoint_every = 1s;
  const std::size_t short_bytes = LatestCheckpoint(short_plan).SerializedBytes();
  const std::size_t long_bytes = LatestCheckpoint(long_plan).SerializedBytes();
  EXPECT_LE(short_bytes, 128u);
  EXPECT_EQ(short_bytes, long_bytes);
}

// --- the one snapshot codec, over both shapes ---

enum class Shape { kSession, kWorld };

/// A session-shaped snapshot (empty witness) or a world-shaped one
/// (a live world's pending mailbox as the witness).
Checkpoint SnapshotOfShape(Shape shape) {
  if (shape == Shape::kSession) return LatestCheckpoint(ShortPlan(5));
  world::WorldConfig config;
  config.ues = 12;
  config.cells = 8;
  config.shards = 2;
  config.duration = sim::Duration{200ms};
  config.handover_every = 4;
  world::WorldEngine engine{config};
  Checkpoint snapshot;
  engine.set_window_hook([&](std::uint64_t k) {
    if (k == 60) snapshot = resilience::SnapshotWorld(engine, k);
  });
  (void)engine.Run();
  return snapshot;
}

class CheckpointCodecTest : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    snapshot_ = SnapshotOfShape(GetParam());
    ASSERT_NE(snapshot_.state_digest, 0u);
    ASSERT_EQ(snapshot_.mailbox.empty(), GetParam() == Shape::kSession);
    snapshot_.Serialize(bytes_);
    ASSERT_EQ(bytes_.size(), snapshot_.SerializedBytes());
  }

  /// Recomputes the trailing checksum, so only the field under test can
  /// be what rejects the bytes.
  static void Reseal(std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(h >> (i * 8));
    }
  }

  Checkpoint snapshot_;
  std::vector<std::uint8_t> bytes_;
};

TEST_P(CheckpointCodecTest, RoundTripsEveryFieldByteStably) {
  const Checkpoint back = Checkpoint::Deserialize(bytes_.data(), bytes_.size());
  EXPECT_EQ(back.config_fingerprint, snapshot_.config_fingerprint);
  EXPECT_EQ(back.seed, snapshot_.seed);
  EXPECT_EQ(back.virtual_time, snapshot_.virtual_time);
  EXPECT_EQ(back.state_digest, snapshot_.state_digest);
  EXPECT_TRUE(back.mailbox == snapshot_.mailbox);

  // Re-serializing the parsed snapshot reproduces the exact bytes.
  std::vector<std::uint8_t> again;
  back.Serialize(again);
  EXPECT_EQ(again, bytes_);
}

TEST_P(CheckpointCodecTest, RoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "/athena_ckpt_test" +
                           std::to_string(static_cast<int>(GetParam())) + ".bin";
  snapshot_.WriteFile(path);
  const Checkpoint back = Checkpoint::LoadFile(path);
  EXPECT_EQ(back.state_digest, snapshot_.state_digest);
  EXPECT_EQ(back.virtual_time, snapshot_.virtual_time);
  EXPECT_TRUE(back.mailbox == snapshot_.mailbox);
}

TEST_P(CheckpointCodecTest, RejectsTruncation) {
  // Any prefix must be rejected, from the empty file to one missing only
  // the final checksum byte.
  for (const std::size_t size : {std::size_t{0}, std::size_t{4}, std::size_t{40},
                                 bytes_.size() / 2, bytes_.size() - 1}) {
    EXPECT_THROW((void)Checkpoint::Deserialize(bytes_.data(), size), CheckpointError)
        << "accepted a " << size << "-byte prefix";
  }
}

TEST_P(CheckpointCodecTest, RejectsBitFlipsAnywhere) {
  // Magic, header fields, witness records, trailing checksum — a flip in
  // any region must be caught before a single field is trusted.
  for (const std::size_t at : {std::size_t{0}, std::size_t{9}, bytes_.size() / 2,
                               bytes_.size() - 3, bytes_.size() - 1}) {
    std::vector<std::uint8_t> corrupt = bytes_;
    corrupt[at] ^= 0x40;
    EXPECT_THROW((void)Checkpoint::Deserialize(corrupt.data(), corrupt.size()),
                 CheckpointError)
        << "accepted a bit flip at offset " << at;
  }
}

TEST_P(CheckpointCodecTest, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> padded = bytes_;
  padded.push_back(0);
  EXPECT_THROW((void)Checkpoint::Deserialize(padded.data(), padded.size()),
               CheckpointError);
}

TEST_P(CheckpointCodecTest, RejectsBadMagic) {
  // The retired world-snapshot magic is a foreign file, even with a
  // valid checksum.
  std::vector<std::uint8_t> world_magic = bytes_;
  const char retired[8] = {'A', 'T', 'H', 'W', 'S', 'N', 'P', '\n'};
  std::copy(retired, retired + 8, world_magic.begin());
  Reseal(world_magic);
  EXPECT_THROW((void)Checkpoint::Deserialize(world_magic.data(), world_magic.size()),
               CheckpointError);
}

TEST_P(CheckpointCodecTest, RejectsOtherVersions) {
  // Version 1 is the retired payload-carrying format; a future version
  // is equally unreadable. The checksum is recomputed so only the
  // version check can reject them.
  for (const std::uint32_t version : {1u, Checkpoint::kVersion + 1}) {
    std::vector<std::uint8_t> other = bytes_;
    other[8] = static_cast<std::uint8_t>(version);
    Reseal(other);
    EXPECT_THROW((void)Checkpoint::Deserialize(other.data(), other.size()),
                 CheckpointError)
        << "accepted version " << version;
  }
}

TEST_P(CheckpointCodecTest, RejectsARecordCountThatWrapsTheSize) {
  // count = 41^-1 mod 2^64, so count × 41 wraps to exactly the one
  // payload byte that follows. The parser must reject the count before
  // it reaches reserve(), not throw std::length_error from it.
  constexpr std::size_t kCountOffset = 44;
  constexpr std::uint64_t kWrappingCount = 10348173504763894809ULL;
  static_assert(kWrappingCount * 41 == 1);
  std::vector<std::uint8_t> lying(bytes_.begin(), bytes_.begin() + kCountOffset + 8);
  for (std::size_t i = 0; i < 8; ++i) {
    lying[kCountOffset + i] = static_cast<std::uint8_t>(kWrappingCount >> (i * 8));
  }
  lying.push_back(0);                // the one payload byte
  lying.resize(lying.size() + 8);    // checksum slot
  Reseal(lying);
  EXPECT_THROW((void)Checkpoint::Deserialize(lying.data(), lying.size()),
               CheckpointError);
}

INSTANTIATE_TEST_SUITE_P(BothShapes, CheckpointCodecTest,
                         ::testing::Values(Shape::kSession, Shape::kWorld),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return info.param == Shape::kSession ? "Session" : "World";
                         });

// --- supervision: stalls, retry budgets, contained check violations ---

TEST(SupervisorTest, WatchdogCancelsALivelockedRun) {
  // An event that reschedules itself at its own timestamp freezes
  // virtual time while the event counter spins — the exact signature the
  // watchdog watches for. The bomb is re-planted on every attempt, so
  // the supervisor must eventually give up, honestly.
  RunPlan plan = ShortPlan(3);
  plan.on_simulator = [](sim::Simulator& sim) {
    struct Bomb {
      static void Plant(sim::Simulator& s, sim::TimePoint at) {
        s.ScheduleAt(at, [&s, at] { Plant(s, at); });
      }
    };
    Bomb::Plant(sim, kEpoch + 100ms);
  };
  SupervisorOptions options;
  options.watchdog = true;
  options.stall_timeout = std::chrono::milliseconds{50};
  options.max_restarts = 1;
  Supervisor supervisor{plan, options};
  const resilience::SupervisedOutcome sup = supervisor.Run();
  EXPECT_FALSE(sup.completed);
  EXPECT_TRUE(sup.gave_up);
  EXPECT_EQ(sup.stalls, 2);  // initial attempt + one restart, both stalled
  EXPECT_EQ(sup.crashes, 0);
}

TEST(SupervisorTest, RetryBudgetBoundsACrashLoop) {
  // A kill every N events fires again after every restore: with a large
  // kill budget the run can never finish, and the supervisor must stop
  // at max_restarts instead of looping forever.
  ProcessFaultSpec faults;
  faults.kill_every_events = 400;
  faults.max_kills = 100;
  SupervisorOptions options = FastOptions();
  options.max_restarts = 2;
  Supervisor supervisor{ShortPlan(4), options};
  const resilience::SupervisedOutcome sup = supervisor.Run(faults);
  EXPECT_FALSE(sup.completed);
  EXPECT_TRUE(sup.gave_up);
  EXPECT_EQ(sup.crashes, 3);  // initial attempt + two restarts
  EXPECT_EQ(sup.restarts, 2);
}

TEST(SupervisorTest, ExhaustedKillBudgetLetsTheRunComplete) {
  // max_kills = 2 with a per-event kill cadence: two attempts die, the
  // third sails through and must still match the uninterrupted digest.
  const RunPlan plan = ShortPlan(9);
  const resilience::RunOutcome uninterrupted = CheckpointingDriver{plan}.Run();

  ProcessFaultSpec faults;
  faults.kill_every_events = 700;
  faults.max_kills = 2;
  Supervisor supervisor{plan, FastOptions()};
  const resilience::SupervisedOutcome sup = supervisor.Run(faults);
  ASSERT_TRUE(sup.completed) << sup.last_error;
  EXPECT_EQ(sup.crashes, 2);
  EXPECT_EQ(sup.outcome.final_digest, uninterrupted.final_digest);
}

TEST(SupervisorTest, HardStallIsPublishedToTheCallersRegistry) {
  // A callback that blocks for several watchdog windows fires no events
  // at all: a hard stall, which cannot be cancelled in-process and must
  // reach the registry the caller installed, not the monitor thread's.
  RunPlan plan = ShortPlan(3);
  plan.on_simulator = [](sim::Simulator& sim) {
    sim.ScheduleAt(kEpoch + 100ms, [] { std::this_thread::sleep_for(300ms); });
  };
  SupervisorOptions options;
  options.stall_timeout = std::chrono::milliseconds{50};
  obs::MetricsRegistry registry;
  obs::ScopedMetrics metrics_scope{&registry};
  Supervisor supervisor{plan, options};
  const resilience::SupervisedOutcome sup = supervisor.Run();
  ASSERT_TRUE(sup.completed) << sup.last_error;
  EXPECT_TRUE(sup.hard_stall_reported);
  EXPECT_EQ(registry.GaugeValue("resilience.supervisor.hard_stall"), 1.0);
}

TEST(SupervisorTest, ForgedCheckpointIsDroppedAndTheRunRebuiltFromScratch) {
  // The session twin of the world test: a checksum-valid checkpoint with
  // the right identity but a forged digest fails replay verification.
  // The supervisor must drop it and rebuild from t=0, not retry it.
  const RunPlan plan = ShortPlan(5);
  const resilience::RunOutcome clean = CheckpointingDriver{plan}.Run();
  Checkpoint forged = LatestCheckpoint(plan);
  forged.state_digest ^= 1;
  std::vector<std::uint8_t> bytes;
  forged.Serialize(bytes);
  const Checkpoint reloaded = Checkpoint::Deserialize(bytes.data(), bytes.size());

  Supervisor supervisor{plan, FastOptions()};
  const resilience::SupervisedOutcome sup = supervisor.RunFrom(reloaded, ProcessFaultSpec{});
  ASSERT_TRUE(sup.completed) << sup.last_error;
  EXPECT_EQ(sup.restarts, 1);
  EXPECT_EQ(sup.crashes, 1);
  EXPECT_NE(sup.last_error.find("replayed state digest"), std::string::npos)
      << sup.last_error;
  EXPECT_FALSE(sup.outcome.restored);
  EXPECT_EQ(sup.outcome.final_digest, clean.final_digest);
  EXPECT_EQ(sup.outcome.report_digest, clean.report_digest);
}

TEST(SupervisorTest, RunFromRejectsForeignCheckpoints) {
  // A checkpoint of another run is refused before any attempt, by the
  // same checks Resume applies — not retried until the budget is gone.
  const Checkpoint latest = LatestCheckpoint(ShortPlan(5));
  Supervisor supervisor{ShortPlan(5), FastOptions()};

  Checkpoint wrong_fingerprint = latest;
  wrong_fingerprint.config_fingerprint ^= 1;
  EXPECT_THROW((void)supervisor.RunFrom(wrong_fingerprint, ProcessFaultSpec{}),
               CheckpointError);

  Checkpoint wrong_seed = latest;
  wrong_seed.seed += 1;
  EXPECT_THROW((void)supervisor.RunFrom(wrong_seed, ProcessFaultSpec{}), CheckpointError);

  // A whole foreign plan: different seed, so a different fingerprint.
  Supervisor other{ShortPlan(6), FastOptions()};
  EXPECT_THROW((void)other.RunFrom(latest, ProcessFaultSpec{}), CheckpointError);
}

TEST(ParallelRunnerTest, PoisonedRunIsAFailedRunNotAProcessKill) {
  // An ATHENA_CHECK violation inside one sweep worker must surface as
  // that run's exception after the join — the sibling runs complete and
  // the process survives.
  const sim::ParallelRunner runner{4};
  std::atomic<int> completed{0};
  EXPECT_THROW(runner.ForEach(8,
                              [&](std::size_t i) {
                                ATHENA_CHECK(i != 5, "poisoned run");
                                completed.fetch_add(1);
                              }),
               sim::CheckViolation);
  EXPECT_EQ(completed.load(), 7);
}

// --- overload governor ---

core::CorrelatorInput MakeOverloadInput() {
  core::CorrelatorInput input;
  for (std::size_t i = 0; i < 150; ++i) {
    ran::TbRecord tb;
    tb.tb_id = i + 1;
    tb.slot_time = kEpoch + i * 2500us;
    tb.tbs_bytes = 1500;
    tb.used_bytes = i < 100 ? 1200 : 0;  // last 50 are padding-only
    input.telemetry.push_back(tb);
  }
  for (std::size_t i = 0; i < 150; ++i) {
    net::CaptureRecord r;
    r.packet_id = i + 1;
    r.local_ts = kEpoch + i * 1ms;
    r.size_bytes = 1200;
    if (i >= 100) {  // last 50 are ICMP probes
      r.set_icmp(net::IcmpMeta{.probe_seq = static_cast<std::uint32_t>(i),
                               .echo_sent_at = r.local_ts});
    } else {
      r.set_rtp(net::RtpMeta{.seq = static_cast<std::uint16_t>(i)});
    }
    input.core.push_back(r);
  }
  return input;
}

TEST(OverloadGovernorTest, UnboundedBudgetShedsNothing) {
  core::CorrelatorInput input = MakeOverloadInput();
  const std::size_t before = resilience::InputBytes(input);
  const resilience::ShedStats stats = BoundInput(input, MemoryBudget{});
  EXPECT_EQ(stats.total(), 0u);
  EXPECT_EQ(resilience::InputBytes(input), before);
}

TEST(OverloadGovernorTest, ShedsIcmpBeforeTouchingData) {
  core::CorrelatorInput input = MakeOverloadInput();
  const std::size_t icmp_bytes = 50 * resilience::kCaptureRecordBudgetBytes;
  MemoryBudget budget;
  budget.input_bytes = resilience::InputBytes(input) - icmp_bytes / 2;
  const resilience::ShedStats stats = BoundInput(input, budget);
  EXPECT_EQ(stats.icmp_shed, 50u);
  EXPECT_EQ(stats.padding_tb_shed, 0u);
  EXPECT_EQ(stats.capped(), 0u);
  EXPECT_LE(resilience::InputBytes(input), budget.input_bytes);
  EXPECT_EQ(input.core.size(), 100u);  // every data record survived
  EXPECT_EQ(input.telemetry.size(), 150u);
}

TEST(OverloadGovernorTest, HardCapEngagesLastAndFitsTheBudget) {
  core::CorrelatorInput input = MakeOverloadInput();
  MemoryBudget budget;
  budget.input_bytes = 12'000;  // below what tiers 2-3 can free
  const resilience::ShedStats stats = BoundInput(input, budget);
  EXPECT_EQ(stats.icmp_shed, 50u);
  EXPECT_EQ(stats.padding_tb_shed, 50u);
  EXPECT_GT(stats.capped(), 0u);
  EXPECT_LE(resilience::InputBytes(input), budget.input_bytes);
  // The cap drops the newest records: the surviving history is a
  // contiguous prefix from t=0.
  ASSERT_FALSE(input.telemetry.empty());
  EXPECT_EQ(input.telemetry.front().slot_time, kEpoch);
}

TEST(OverloadDetectorTest, FiresOnShedGrowthAndStaysQuietOtherwise) {
  obs::live::DetectorBank bank;
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 0u);

  bank.OnShed({.t = kEpoch + 100ms, .shed_total = 40.0, .shed_capped = 0.0});
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 1u);

  // No growth → no new anomaly, even past the emission cooldown.
  bank.OnShed({.t = kEpoch + 700ms, .shed_total = 40.0, .shed_capped = 0.0});
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 1u);

  // Growth, now with hard-capped data records → fires again.
  bank.OnShed({.t = kEpoch + 1400ms, .shed_total = 90.0, .shed_capped = 10.0});
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 2u);
}

}  // namespace
}  // namespace athena
