// Shard-crash supervision for the sharded world engine.
//
// The world-scale counterpart of Supervisor (supervisor.hpp): drives a
// WorldEngine to completion under deterministic shard-crash injection,
// snapshotting the whole world at a window cadence and restoring from
// the latest snapshot after a crash. Restore is replay-based, like every
// checkpoint in this repo: a fresh engine replays windows 1..k and the
// supervisor's window hook verifies — state digest and canonical-order
// mailbox records, byte-for-byte — that the replayed boundary matches
// the snapshot before the run continues (CheckpointError on divergence).
// A supervised run that recovers from a crash therefore finishes with a
// world digest and FleetReport byte-identical to an uninterrupted run,
// at any shard count, threaded or sequential.
//
// Cell quarantine: when crashes blamed on one cell exhaust its restart
// budget, the next restore quarantines that cell — from the crash window
// onward it stops transmitting and the engine evacuates its population
// to surviving cells through the normal 4-message handover dance
// (in-flight HARQ chains booked as `lost`; UEs without time to move are
// stranded with their packets in_flight) — so the conservation ledger
// balances and the run completes instead of crash-looping.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "resilience/world_checkpoint.hpp"
#include "world/config.hpp"
#include "world/engine.hpp"

namespace athena::resilience {

/// ProcessFaultSpec's world-scale sibling: a deterministic crash point
/// in (shard, window) coordinates with a kill budget shared across
/// attempts — a restore replays through the crash window, so an
/// unbounded budget would crash-loop forever.
struct WorldFaultSpec {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// Shard whose worker dies (mod the layout's shard count). kNone
  /// disables injection.
  std::size_t crash_shard = kNone;
  /// 1-based window at which it dies; 0 derives a mid-run window from
  /// the world seed.
  std::uint64_t crash_window = 0;
  /// Total kills across all attempts (the default crashes once and lets
  /// the restore replay through the crash point unharmed).
  int max_kills = 1;

  /// Cell blamed for the crashes. When its crash count exceeds
  /// WorldSupervisorOptions::cell_restart_budget, the cell is
  /// quarantined and the crash point is disarmed (the faulty workload is
  /// out of the world). kNone blames the crash shard's lowest cell.
  std::size_t blame_cell = kNone;

  [[nodiscard]] bool any() const { return crash_shard != kNone; }
};

struct WorldSupervisorOptions {
  /// Snapshot cadence in window boundaries; 0 disables checkpoints (a
  /// crash then restarts from scratch).
  std::uint64_t checkpoint_every_windows = 64;
  /// Restart attempts after the first (attempts = max_restarts + 1).
  int max_restarts = 3;
  /// Crashes blamed on one cell before it is quarantined.
  int cell_restart_budget = 2;
  /// Invoked with every snapshot taken (the CLI spills the latest to
  /// disk). Observability only: must not mutate the run.
  std::function<void(const Checkpoint&)> on_checkpoint;
  /// Human-readable lifecycle events (crash, restore, quarantine).
  std::function<void(const std::string&)> on_event;
};

struct WorldSupervisedOutcome {
  world::WorldResult result;
  bool completed = false;
  bool gave_up = false;
  int crashes = 0;
  int restarts = 0;
  /// Attempts that began from a snapshot (replay + verify), as opposed
  /// to from scratch.
  int restores = 0;
  std::uint64_t checkpoints_taken = 0;
  std::size_t last_snapshot_bytes = 0;
  /// Wall seconds spent replaying up to the verified restore boundary,
  /// summed over restore attempts (bench_world reports this).
  double restore_replay_seconds = 0.0;
  std::vector<std::size_t> quarantined_cells;
  std::string last_error;
};

class WorldSupervisor {
 public:
  WorldSupervisor(world::WorldConfig config, WorldSupervisorOptions options);

  /// Supervised run from scratch.
  [[nodiscard]] WorldSupervisedOutcome Run(const WorldFaultSpec& faults);

  /// Supervised run seeded with an on-disk snapshot (--restore):
  /// validates identity (fingerprint + seed) and that the snapshot lies
  /// on a window boundary — CheckpointError otherwise — then replays to
  /// that window, verifies, and continues under supervision.
  [[nodiscard]] WorldSupervisedOutcome RunFrom(const Checkpoint& start,
                                               const WorldFaultSpec& faults);

  /// The window the fault spec resolves to under this config (exposed so
  /// callers can align checkpoint cadences and quarantine probes).
  [[nodiscard]] std::uint64_t ResolveCrashWindow(const WorldFaultSpec& faults) const;

 private:
  [[nodiscard]] WorldSupervisedOutcome Drive(const WorldFaultSpec& faults,
                                             const Checkpoint* start);

  world::WorldConfig config_;
  WorldSupervisorOptions options_;
};

}  // namespace athena::resilience
