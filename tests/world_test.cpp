// World engine invariants: digest identity across shard layouts and
// execution modes, run-to-run reproducibility, handover conservation,
// contention backpressure, and outage degradation.
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "sim/check.hpp"
#include "world/engine.hpp"

namespace athena::world {
namespace {

using namespace std::chrono_literals;

WorldConfig SmallWorld() {
  WorldConfig config;
  config.seed = 1234;
  config.ues = 16;
  config.cells = 8;
  config.duration = sim::Duration{400ms};
  config.handover_every = 4;  // UEs 0, 4, 8, 12 migrate mid-run
  return config;
}

WorldResult RunWorld(WorldConfig config, std::size_t shards, bool threaded) {
  config.shards = shards;
  config.threaded = threaded;
  WorldEngine engine(std::move(config));
  return engine.Run();
}

TEST(WorldEngineTest, DigestIdenticalAcrossShardCounts) {
  const WorldResult one = RunWorld(SmallWorld(), 1, /*threaded=*/false);
  const WorldResult two = RunWorld(SmallWorld(), 2, /*threaded=*/true);
  const WorldResult eight = RunWorld(SmallWorld(), 8, /*threaded=*/true);

  ASSERT_TRUE(one.conservation_ok) << one.conservation_error;
  ASSERT_TRUE(two.conservation_ok) << two.conservation_error;
  ASSERT_TRUE(eight.conservation_ok) << eight.conservation_error;

  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  // The population report must also be byte-identical — not just the
  // simulation state but everything derived from it.
  EXPECT_EQ(one.fleet_json, two.fleet_json);
  EXPECT_EQ(one.fleet_json, eight.fleet_json);
  EXPECT_EQ(eight.shards, 8u);
  EXPECT_TRUE(eight.threaded);
}

TEST(WorldEngineTest, SameSeedRunsAreByteIdentical) {
  const WorldResult a = RunWorld(SmallWorld(), 4, /*threaded=*/true);
  const WorldResult b = RunWorld(SmallWorld(), 4, /*threaded=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.fleet_json, b.fleet_json);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.handovers, b.handovers);
}

TEST(WorldEngineTest, ThreadedMatchesSequential) {
  const WorldResult threaded = RunWorld(SmallWorld(), 4, /*threaded=*/true);
  const WorldResult sequential = RunWorld(SmallWorld(), 4, /*threaded=*/false);
  EXPECT_EQ(threaded.digest, sequential.digest);
  EXPECT_EQ(threaded.fleet_json, sequential.fleet_json);
  EXPECT_FALSE(sequential.threaded);
}

TEST(WorldEngineTest, SeedChangesTheWorld) {
  WorldConfig other = SmallWorld();
  other.seed = 99;
  const WorldResult a = RunWorld(SmallWorld(), 2, /*threaded=*/true);
  const WorldResult b = RunWorld(other, 2, /*threaded=*/true);
  EXPECT_NE(a.digest, b.digest);
}

TEST(WorldEngineTest, HandoverConservesEveryUe) {
  WorldConfig config = SmallWorld();
  config.handover_every = 2;  // half the population migrates
  const WorldResult result = RunWorld(config, 4, /*threaded=*/true);

  ASSERT_TRUE(result.conservation_ok) << result.conservation_error;
  EXPECT_EQ(result.handovers, 8u);  // UEs 0, 2, ..., 14
  // Population-wide packet conservation: nothing created, nothing
  // silently destroyed.
  EXPECT_EQ(result.offered, result.delivered + result.lost + result.in_flight);
}

TEST(WorldEngineTest, ContentionCreatesBackpressure) {
  WorldConfig tight = SmallWorld();
  tight.ues = 8;
  tight.cells = 1;
  tight.handover_every = 0;
  tight.cell.cell_ul_capacity_bps = 1e6;  // 8 UEs into a 1 Mbps cell
  WorldConfig roomy = tight;
  roomy.cell.cell_ul_capacity_bps = 100e6;

  const WorldResult starved = RunWorld(tight, 1, /*threaded=*/false);
  const WorldResult fed = RunWorld(roomy, 1, /*threaded=*/false);

  ASSERT_TRUE(starved.conservation_ok) << starved.conservation_error;
  ASSERT_GT(starved.offered, 0u);
  ASSERT_GT(fed.offered, 0u);
  const double starved_ratio =
      static_cast<double>(starved.delivered) / static_cast<double>(starved.offered);
  const double fed_ratio =
      static_cast<double>(fed.delivered) / static_cast<double>(fed.offered);
  EXPECT_LT(starved_ratio, fed_ratio);
}

TEST(WorldEngineTest, CellOutageDegradesItsPopulation) {
  WorldConfig config = SmallWorld();
  config.handover_every = 0;
  config.outage_cell = 0;
  // Black the cell out until the end of the run: a window that closes
  // early lets the 100 Mbps cell drain the whole backlog and the
  // end-state totals converge again.
  config.outage_start = sim::TimePoint{sim::Duration{100ms}};
  config.outage_end = sim::TimePoint{config.duration};
  WorldConfig clean_config = config;
  clean_config.outage_cell = WorldConfig::kNoOutage;

  const WorldResult faulted = RunWorld(config, 4, /*threaded=*/true);
  const WorldResult clean = RunWorld(clean_config, 4, /*threaded=*/true);

  ASSERT_TRUE(faulted.conservation_ok) << faulted.conservation_error;
  EXPECT_LT(faulted.delivered, clean.delivered);
  // Per-cell population groups surface the blast radius.
  EXPECT_EQ(faulted.report.scenarios.count("world/cell0"), 1u);
  EXPECT_EQ(faulted.report.scenarios.count("world/cell1"), 1u);
}

TEST(WorldEngineTest, FleetReportCoversThePopulation) {
  const WorldResult result = RunWorld(SmallWorld(), 2, /*threaded=*/true);
  EXPECT_EQ(result.report.sessions, 16u);
  EXPECT_FALSE(result.fleet_json.empty());
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.messages_delivered, 0u);
  EXPECT_GT(result.busy_seconds, 0.0);
  EXPECT_GT(result.critical_path_seconds, 0.0);
  EXPECT_LE(result.critical_path_seconds, result.busy_seconds + 1e-9);
}

TEST(WorldValidationTest, RejectsUnbuildableWorlds) {
  sim::ScopedCheckThrow guard;
  const auto build = [](auto mutate) {
    WorldConfig config = SmallWorld();
    mutate(config);
    WorldEngine engine{std::move(config)};
  };
  EXPECT_THROW(build([](WorldConfig& c) { c.ues = 0; }), sim::CheckViolation);
  EXPECT_THROW(build([](WorldConfig& c) { c.cells = 0; }), sim::CheckViolation);
  EXPECT_THROW(build([](WorldConfig& c) { c.shards = 0; }), sim::CheckViolation);
  // More shards than cells leaves shards with no entities to run.
  EXPECT_THROW(build([](WorldConfig& c) { c.shards = c.cells + 1; }),
               sim::CheckViolation);
  EXPECT_THROW(build([](WorldConfig& c) { c.duration = sim::Duration{0}; }),
               sim::CheckViolation);
  EXPECT_THROW(build([](WorldConfig& c) { c.link_latency = sim::Duration{0}; }),
               sim::CheckViolation);
  // Lookahead longer than the run: not even one window fits.
  EXPECT_THROW(build([](WorldConfig& c) { c.link_latency = c.duration * 2; }),
               sim::CheckViolation);
  EXPECT_THROW(build([](WorldConfig& c) { c.handover_latency = sim::Duration{-1}; }),
               sim::CheckViolation);
  // A crash point needs a 1-based window.
  EXPECT_THROW(build([](WorldConfig& c) { c.crash_shard = 0; c.crash_window = 0; }),
               sim::CheckViolation);
  EXPECT_THROW(build([](WorldConfig& c) {
                 c.quarantines.push_back({c.cells, sim::kEpoch});
               }),
               sim::CheckViolation);
}

TEST(WorldValidationTest, RunIsSingleShot) {
  sim::ScopedCheckThrow guard;
  WorldConfig config = SmallWorld();
  config.duration = sim::Duration{50ms};
  WorldEngine engine{std::move(config)};
  (void)engine.Run();
  EXPECT_THROW((void)engine.Run(), sim::CheckViolation);
}

fault::ChaosScenario OutageScenario() {
  const auto catalog = fault::BuiltinScenarios();
  const fault::ChaosScenario* outage = fault::FindScenario(catalog, "world_cell_outage");
  EXPECT_NE(outage, nullptr);
  return outage != nullptr ? *outage : fault::ChaosScenario{};
}

TEST(WorldChaosTest, CellOutageContractHolds) {
  // The catalog shape: 24 UEs on 4 cells, 2 threaded shards, 400 ms.
  const fault::ChaosOutcome outcome = fault::RunChaosScenario(OutageScenario(), 7);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
  const fault::WorldEvidence& e = outcome.world();
  EXPECT_TRUE(e.clean.conservation_ok);
  EXPECT_TRUE(e.faulted.result.conservation_ok);
  // Half of cell 0's population stays put at this shape, so the outage
  // also costs world-wide delivery.
  EXPECT_LT(e.faulted.result.delivered, e.clean.delivered);
}

TEST(WorldChaosTest, OutageContractHoldsWhenTheOutagePopulationHandsOver) {
  // The CLI shape: with cells == handover_every every cell-0 UE hands
  // over during the outage and carries its backlog to cell 1, so world
  // delivery need not drop. The outage cell's own group must still show
  // the fault.
  fault::ChaosScenario scenario = OutageScenario();
  scenario.shape = {.ues = 256, .cells = 8, .shards = 4, .threaded = true,
                    .handover_every = 8};
  scenario.duration = sim::Duration{1s};
  const fault::ChaosOutcome outcome = fault::RunChaosScenario(scenario, 42);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;

  const fault::WorldEvidence& e = outcome.world();
  const auto& clean = e.clean.report.scenarios.at("world-chaos/cell0").metrics;
  const auto& hit = e.faulted.result.report.scenarios.at("world-chaos/cell0").metrics;
  EXPECT_GT(hit.at("uplink_owd_ms").mean, clean.at("uplink_owd_ms").mean);
  EXPECT_GE(hit.at("frame_late_fraction").mean, clean.at("frame_late_fraction").mean);
  // The evidence carries the judged means, so the table and JSON show them.
  ASSERT_TRUE(e.outage_group_owd.has_value());
  EXPECT_EQ(e.outage_group_owd->clean_ms, clean.at("uplink_owd_ms").mean);
  EXPECT_EQ(e.outage_group_owd->faulted_ms, hit.at("uplink_owd_ms").mean);
}

}  // namespace
}  // namespace athena::world
