// World-scale fault tolerance: windowed world snapshots (derived window
// index, layout invariance, foreign and forged snapshots; the codec
// itself is tested over both snapshot shapes in resilience_test.cpp),
// shard-crash supervision
// (restore-to-identical-digest across seeds × kill windows × layouts),
// and cell quarantine (conservation with evacuation drops booked as
// lost).
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "resilience/world_checkpoint.hpp"
#include "resilience/world_supervisor.hpp"
#include "sim/check.hpp"
#include "world/engine.hpp"

namespace athena::resilience {
namespace {

using namespace std::chrono_literals;

world::WorldConfig ResilienceWorld(std::uint64_t seed = 42) {
  world::WorldConfig config;
  config.seed = seed;
  config.ues = 12;
  config.cells = 8;
  config.shards = 2;
  config.threaded = true;
  config.duration = sim::Duration{200ms};  // 200 windows at 1 ms lookahead
  config.handover_every = 4;
  config.scenario = "world-resilience";
  return config;
}

/// Runs the world to completion, capturing a snapshot at `window`.
Checkpoint CaptureSnapshot(world::WorldConfig config, std::uint64_t window) {
  world::WorldEngine engine(std::move(config));
  std::optional<Checkpoint> snapshot;
  engine.set_window_hook([&](std::uint64_t k) {
    if (k == window) snapshot = SnapshotWorld(engine, k);
  });
  (void)engine.Run();
  EXPECT_TRUE(snapshot.has_value());
  return *snapshot;
}

TEST(WorldSnapshotTest, WindowIsDerivedFromVirtualTime) {
  const world::WorldConfig config = ResilienceWorld();
  const Checkpoint snapshot = CaptureSnapshot(config, 100);
  EXPECT_EQ(snapshot.virtual_time, sim::kEpoch + sim::Duration{100ms});
  EXPECT_EQ(SnapshotWindow(config, snapshot), 100u);
  EXPECT_NE(snapshot.state_digest, 0u);
  EXPECT_FALSE(snapshot.mailbox.empty());  // a live world has mail in flight

  // Only interior window boundaries name a restore point: off-grid
  // times, t=0 and the final boundary (never snapshotted) are refused.
  for (const sim::Duration t : {sim::Duration{100'500}, sim::Duration{0},
                                sim::Duration{200ms}, sim::Duration{300ms}}) {
    Checkpoint moved = snapshot;
    moved.virtual_time = sim::kEpoch + t;
    EXPECT_THROW((void)SnapshotWindow(config, moved), CheckpointError)
        << "accepted a snapshot at " << t.count() << "us";
  }
}

TEST(WorldSnapshotTest, SnapshotIsLayoutInvariant) {
  world::WorldConfig wide = ResilienceWorld();
  wide.shards = 8;
  wide.threaded = true;
  world::WorldConfig narrow = ResilienceWorld();
  narrow.shards = 1;
  narrow.threaded = false;

  const Checkpoint a = CaptureSnapshot(wide, 80);
  const Checkpoint b = CaptureSnapshot(narrow, 80);

  // Nothing in a snapshot names a shard: 8 threaded shards and 1
  // sequential shard must produce byte-identical witnesses.
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_TRUE(a.mailbox == b.mailbox);
  std::vector<std::uint8_t> bytes_a, bytes_b;
  a.Serialize(bytes_a);
  b.Serialize(bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(WorldSnapshotTest, SupervisorRejectsForeignSnapshots) {
  const Checkpoint snapshot = CaptureSnapshot(ResilienceWorld(), 60);

  // Same world, different physics: the fingerprint catches it.
  world::WorldConfig slower = ResilienceWorld();
  slower.wan_delay = sim::Duration{15ms};
  WorldSupervisor wrong_config(slower, WorldSupervisorOptions{});
  EXPECT_THROW((void)wrong_config.RunFrom(snapshot, WorldFaultSpec{}), CheckpointError);

  // Fingerprint excludes layout on purpose — but the seed still gates.
  world::WorldConfig other_seed = ResilienceWorld();
  other_seed.seed = 4321;
  WorldSupervisor wrong_seed(other_seed, WorldSupervisorOptions{});
  EXPECT_THROW((void)wrong_seed.RunFrom(snapshot, WorldFaultSpec{}), CheckpointError);

  // A snapshot between window boundaries names no restore point.
  Checkpoint off_grid = snapshot;
  off_grid.virtual_time += sim::Duration{1};
  WorldSupervisor same(ResilienceWorld(), WorldSupervisorOptions{});
  EXPECT_THROW((void)same.RunFrom(off_grid, WorldFaultSpec{}), CheckpointError);
}

TEST(WorldSupervisorTest, RestoreFromSnapshotFinishesIdentically) {
  const world::WorldConfig config = ResilienceWorld();
  world::WorldEngine clean_engine{config};
  const world::WorldResult clean = clean_engine.Run();

  // Resume an interrupted run from its on-disk witness: replay to the
  // boundary, verify, continue — the end state must be byte-identical.
  const Checkpoint snapshot = CaptureSnapshot(config, 120);
  std::vector<std::uint8_t> bytes;
  snapshot.Serialize(bytes);
  const Checkpoint reloaded = Checkpoint::Deserialize(bytes.data(), bytes.size());

  WorldSupervisor supervisor(config, WorldSupervisorOptions{});
  const WorldSupervisedOutcome resumed = supervisor.RunFrom(reloaded, WorldFaultSpec{});
  ASSERT_TRUE(resumed.completed) << resumed.last_error;
  EXPECT_EQ(resumed.restores, 1);
  EXPECT_EQ(resumed.crashes, 0);
  EXPECT_EQ(resumed.result.digest, clean.digest);
  EXPECT_EQ(resumed.result.fleet_json, clean.fleet_json);
}

TEST(WorldSupervisorTest, ForgedSnapshotIsDroppedAndTheRunRebuiltFromScratch) {
  const world::WorldConfig config = ResilienceWorld();
  world::WorldEngine clean_engine{config};
  const world::WorldResult clean = clean_engine.Run();

  // Checksum-valid, right identity, wrong digest: only the replay
  // verification at window 120 can catch it. The supervisor must drop
  // the snapshot and rebuild the run from t=0 — determinism makes that
  // equivalent, just slower.
  Checkpoint forged = CaptureSnapshot(config, 120);
  forged.state_digest ^= 1;
  std::vector<std::uint8_t> bytes;
  forged.Serialize(bytes);
  const Checkpoint reloaded = Checkpoint::Deserialize(bytes.data(), bytes.size());

  WorldSupervisor supervisor(config, WorldSupervisorOptions{});
  const WorldSupervisedOutcome outcome = supervisor.RunFrom(reloaded, WorldFaultSpec{});
  ASSERT_TRUE(outcome.completed) << outcome.last_error;
  EXPECT_EQ(outcome.restores, 1);
  EXPECT_EQ(outcome.crashes, 1);
  EXPECT_NE(outcome.last_error.find("window 120"), std::string::npos)
      << outcome.last_error;
  EXPECT_EQ(outcome.result.digest, clean.digest);
  EXPECT_EQ(outcome.result.fleet_json, clean.fleet_json);
}

// The tentpole property: a supervised run whose shard dies mid-window
// recovers to a final digest and FleetReport byte-identical to a run
// that never crashed — across seeds, kill windows (fixed and
// seed-derived), and shard layouts, threaded and sequential.
TEST(WorldSupervisorTest, CrashRestoreMatchesCleanAcrossSeedsWindowsLayouts) {
  const std::uint64_t seeds[] = {11, 77};
  const std::uint64_t kill_windows[] = {0 /* seed-derived */, 50, 150};
  const struct {
    std::size_t shards;
    bool threaded;
  } layouts[] = {{1, false}, {2, true}, {8, true}};

  for (const std::uint64_t seed : seeds) {
    world::WorldEngine clean_engine{ResilienceWorld(seed)};
    const world::WorldResult clean = clean_engine.Run();
    for (const std::uint64_t kill_window : kill_windows) {
      for (const auto& layout : layouts) {
        world::WorldConfig config = ResilienceWorld(seed);
        config.shards = layout.shards;
        config.threaded = layout.threaded;

        WorldSupervisorOptions options;
        options.checkpoint_every_windows = 32;
        WorldSupervisor supervisor(config, options);

        WorldFaultSpec faults;
        faults.crash_shard = 1;  // mod shard count at 1-shard layouts
        faults.crash_window = kill_window;
        const WorldSupervisedOutcome outcome = supervisor.Run(faults);

        const std::string where = "seed=" + std::to_string(seed) +
                                  " kill_window=" + std::to_string(kill_window) +
                                  " shards=" + std::to_string(layout.shards) +
                                  (layout.threaded ? " threaded" : " sequential");
        ASSERT_TRUE(outcome.completed) << where << ": " << outcome.last_error;
        EXPECT_GE(outcome.crashes, 1) << where;
        EXPECT_GE(outcome.restarts, 1) << where;
        EXPECT_TRUE(outcome.result.conservation_ok)
            << where << ": " << outcome.result.conservation_error;
        EXPECT_EQ(outcome.result.digest, clean.digest) << where;
        EXPECT_EQ(outcome.result.fleet_json, clean.fleet_json) << where;
      }
    }
  }
}

TEST(WorldSupervisorTest, GivesUpWhenRetryBudgetExhausted) {
  WorldSupervisorOptions options;
  options.max_restarts = 1;
  options.cell_restart_budget = 1 << 20;  // never quarantine
  WorldSupervisor supervisor(ResilienceWorld(), options);

  WorldFaultSpec faults;
  faults.crash_shard = 0;
  faults.crash_window = 40;
  faults.max_kills = 100;  // every attempt dies
  const WorldSupervisedOutcome outcome = supervisor.Run(faults);

  EXPECT_FALSE(outcome.completed);
  EXPECT_TRUE(outcome.gave_up);
  EXPECT_EQ(outcome.crashes, 2);  // initial attempt + one restart
  EXPECT_FALSE(outcome.last_error.empty());
}

TEST(WorldQuarantineTest, ConservationHoldsWithEvacuationAndStranding) {
  world::WorldConfig config = ResilienceWorld();
  config.handover_every = 0;  // isolate quarantine-driven mobility
  world::WorldConfig clean_config = config;
  // Cell 1 goes dark mid-run: its UEs have time for the 4-message dance
  // and evacuate. Cell 2 goes dark with only 40 ms left — less than one
  // handover (4 × 21 ms) — so its UEs strand with their queues frozen.
  config.quarantines.push_back(
      world::WorldConfig::QuarantineSpec{1, sim::TimePoint{sim::Duration{50ms}}});
  config.quarantines.push_back(
      world::WorldConfig::QuarantineSpec{2, sim::TimePoint{sim::Duration{160ms}}});

  world::WorldEngine clean_engine{clean_config};
  const world::WorldResult clean = clean_engine.Run();
  world::WorldEngine engine{config};
  const world::WorldResult result = engine.Run();

  ASSERT_TRUE(result.conservation_ok) << result.conservation_error;
  ASSERT_EQ(result.quarantined_cells.size(), 2u);
  EXPECT_EQ(result.quarantined_cells[0], 1u);
  EXPECT_EQ(result.quarantined_cells[1], 2u);
  // Both fates occur: cell 1's UEs moved, cell 2's could not.
  EXPECT_GT(result.evacuated, 0u);
  EXPECT_GT(result.stranded, 0u);
  // Stranded UEs' tail packets never reach the core.
  EXPECT_LT(result.delivered, clean.delivered);
  EXPECT_GE(result.lost, clean.lost);
  // Ledger identity, with evacuation drops under `lost` and stranded
  // UEs' queues under `in_flight`.
  EXPECT_EQ(result.offered,
            result.delivered + result.lost + result.in_flight);
  // The quarantined population groups are visible to operators.
  EXPECT_EQ(result.report.scenarios.count("world-resilience/cell1/quarantined"), 1u);
  EXPECT_EQ(result.report.scenarios.count("world-resilience/cell2/quarantined"), 1u);
}

TEST(WorldQuarantineTest, QuarantineIsLayoutInvariant) {
  const auto run = [](std::size_t shards, bool threaded) {
    world::WorldConfig config = ResilienceWorld();
    config.shards = shards;
    config.threaded = threaded;
    config.quarantines.push_back(
        world::WorldConfig::QuarantineSpec{2, sim::TimePoint{sim::Duration{80ms}}});
    world::WorldEngine engine{std::move(config)};
    return engine.Run();
  };
  const world::WorldResult one = run(1, false);
  const world::WorldResult two = run(2, true);
  const world::WorldResult eight = run(8, true);
  ASSERT_TRUE(one.conservation_ok) << one.conservation_error;
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.fleet_json, two.fleet_json);
  EXPECT_EQ(one.fleet_json, eight.fleet_json);
  EXPECT_EQ(one.evacuated, eight.evacuated);
  EXPECT_EQ(one.stranded, eight.stranded);
}

/// Runs a world scenario of the chaos catalog (16 UEs on 4 cells, 2
/// threaded shards, 300 ms) at seed 7.
fault::ChaosOutcome RunCatalogWorld(std::string_view name) {
  const auto catalog = fault::BuiltinScenarios();
  const fault::ChaosScenario* scenario = fault::FindScenario(catalog, name);
  EXPECT_NE(scenario, nullptr) << name;
  return scenario != nullptr ? fault::RunChaosScenario(*scenario, 7) : fault::ChaosOutcome{};
}

TEST(WorldChaosScenarioTest, ShardCrashRestoreContractHolds) {
  const fault::ChaosOutcome outcome = RunCatalogWorld("world_shard_crash_restore");
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
  const fault::WorldEvidence& e = outcome.world();
  EXPECT_GE(e.faulted.checkpoints_taken, 1u);
  EXPECT_EQ(e.faulted.result.digest, e.clean.digest);
}

TEST(WorldChaosScenarioTest, CellQuarantineContractHolds) {
  const fault::ChaosOutcome outcome = RunCatalogWorld("world_cell_quarantine");
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
  const fault::WorldEvidence& e = outcome.world();
  EXPECT_FALSE(e.faulted.quarantined_cells.empty());
  EXPECT_TRUE(e.faulted.result.conservation_ok);
}

TEST(WorldChaosScenarioTest, QuarantineLossRuleRejectsASwappedPair) {
  const fault::ChaosOutcome outcome = RunCatalogWorld("world_cell_quarantine");
  const fault::WorldEvidence& e = outcome.world();
  const world::WorldResult& quarantined = e.faulted.result;
  EXPECT_GT(quarantined.lost + quarantined.in_flight, e.clean.lost + e.clean.in_flight);
  EXPECT_EQ(fault::QuarantineLossViolation(e.clean, quarantined), "");
  // The clean world judged as if it were the quarantined one.
  EXPECT_NE(fault::QuarantineLossViolation(quarantined, e.clean).find("did not raise"),
            std::string::npos);
  // Equal totals are not a rise either.
  EXPECT_NE(fault::QuarantineLossViolation(quarantined, quarantined), "");
}

}  // namespace
}  // namespace athena::resilience
