#include "resilience/world_supervisor.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/barrier.hpp"
#include "sim/check.hpp"
#include "sim/runner.hpp"

namespace athena::resilience {
namespace {

/// Seed sub-stream for the derived crash window (disjoint from the
/// engine's kChannelStream/kHandoverStream fan-out).
constexpr std::uint64_t kCrashWindowStream = 3'000'000;

[[nodiscard]] double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

WorldSupervisor::WorldSupervisor(world::WorldConfig config, WorldSupervisorOptions options)
    : config_(std::move(config)), options_(std::move(options)) {}

std::uint64_t WorldSupervisor::ResolveCrashWindow(const WorldFaultSpec& faults) const {
  const auto schedule = sim::WindowSchedule::Cover(
      sim::kEpoch, sim::kEpoch + config_.duration, config_.link_latency);
  if (faults.crash_window != 0) {
    return std::min(faults.crash_window, schedule.windows);
  }
  // Seed-derived, in the middle 50% of the run: late enough that a
  // checkpoint exists, early enough that the recovery is exercised.
  const std::uint64_t span = std::max<std::uint64_t>(1, schedule.windows / 2);
  return schedule.windows / 4 + 1 +
         sim::DeriveSeed(config_.seed, kCrashWindowStream) % span;
}

WorldSupervisedOutcome WorldSupervisor::Run(const WorldFaultSpec& faults) {
  return Drive(faults, nullptr);
}

WorldSupervisedOutcome WorldSupervisor::RunFrom(const Checkpoint& start,
                                                const WorldFaultSpec& faults) {
  const std::uint64_t fingerprint = WorldConfigFingerprint(config_);
  if (start.config_fingerprint != fingerprint) {
    std::ostringstream os;
    os << "world snapshot was taken under a different configuration (fingerprint 0x"
       << std::hex << start.config_fingerprint << ", this config 0x" << fingerprint
       << ") — the replay would silently diverge";
    throw CheckpointError(os.str());
  }
  if (start.seed != config_.seed) {
    throw CheckpointError("world snapshot seed " + std::to_string(start.seed) +
                          " does not match the configured seed " +
                          std::to_string(config_.seed));
  }
  (void)SnapshotWindow(config_, start);  // throws unless on this run's window grid
  return Drive(faults, &start);
}

WorldSupervisedOutcome WorldSupervisor::Drive(const WorldFaultSpec& faults,
                                              const Checkpoint* start) {
  WorldSupervisedOutcome out;
  const auto say = [&](const std::string& msg) {
    if (options_.on_event) options_.on_event(msg);
  };

  const auto schedule = sim::WindowSchedule::Cover(
      sim::kEpoch, sim::kEpoch + config_.duration, config_.link_latency);
  const std::uint64_t crash_window = faults.any() ? ResolveCrashWindow(faults) : 0;
  const std::size_t blame_cell =
      faults.blame_cell != WorldFaultSpec::kNone
          ? faults.blame_cell % config_.cells
          : (faults.any() ? faults.crash_shard % config_.shards : 0);

  // The latest snapshot is the restart point; seed it from --restore.
  std::optional<Checkpoint> latest;
  if (start != nullptr) latest = *start;

  int kills_done = 0;
  int blame_crashes = 0;
  bool quarantined = false;
  const int max_attempts = options_.max_restarts + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const std::uint64_t restore_window = latest ? SnapshotWindow(config_, *latest) : 0;
    if (attempt > 0) {
      ++out.restarts;
      std::ostringstream os;
      os << "restart " << attempt << "/" << options_.max_restarts << " from "
         << (latest ? "snapshot at window " + std::to_string(restore_window)
                    : std::string{"scratch (no snapshot yet)"});
      say(os.str());
    }

    world::WorldConfig cfg = config_;
    const bool armed = faults.any() && kills_done < faults.max_kills && !quarantined;
    cfg.crash_shard = armed ? faults.crash_shard : world::WorldConfig::kNoCrash;
    cfg.crash_window = armed ? crash_window : 0;
    if (quarantined) {
      // Quarantine from the start of the crash window: one tick past the
      // W_{crash-1} boundary, so every boundary at or before it — the
      // restore-verify point included — replays untouched.
      const std::int64_t at_us =
          static_cast<std::int64_t>(crash_window - 1) * cfg.link_latency.count() + 1;
      cfg.quarantines.push_back(
          world::WorldConfig::QuarantineSpec{blame_cell, sim::TimePoint{sim::Duration{at_us}}});
    }

    if (latest) ++out.restores;

    world::WorldEngine engine(cfg);
    const auto attempt_t0 = std::chrono::steady_clock::now();
    engine.set_window_hook([&](std::uint64_t k) {
      if (restore_window != 0 && k == restore_window) {
        // The restore contract: the replayed boundary must reproduce the
        // snapshot byte-for-byte — state digest and canonical-order
        // pending mailbox alike — before the run is allowed to continue.
        const std::uint64_t digest = engine.Digest();
        const auto mailbox = engine.PendingMailRecords();
        if (digest != latest->state_digest || !(mailbox == latest->mailbox)) {
          throw CheckpointError(DescribeWorldDivergence(*latest, k, digest, mailbox));
        }
        out.restore_replay_seconds += SecondsSince(attempt_t0);
      }
      if (options_.checkpoint_every_windows > 0 &&
          k % options_.checkpoint_every_windows == 0 && k > restore_window &&
          k < schedule.windows) {
        Checkpoint snapshot = SnapshotWorld(engine, k);
        ++out.checkpoints_taken;
        out.last_snapshot_bytes = snapshot.SerializedBytes();
        if (options_.on_checkpoint) options_.on_checkpoint(snapshot);
        latest = std::move(snapshot);
      }
    });

    try {
      sim::ScopedCheckThrow contain;
      out.result = engine.Run();
      out.completed = true;
    } catch (const world::ShardCrash& e) {
      ++out.crashes;
      ++kills_done;
      ++blame_crashes;
      out.last_error = e.what();
      say(std::string{"crash: "} + e.what());
      if (!quarantined && blame_crashes > options_.cell_restart_budget) {
        quarantined = true;
        out.quarantined_cells.push_back(blame_cell);
        say("cell " + std::to_string(blame_cell) + " exhausted its restart budget (" +
            std::to_string(options_.cell_restart_budget) +
            "); quarantining it and evacuating its UEs");
      }
    } catch (const CheckpointError& e) {
      // Replay divergence (or a poisoned snapshot). The snapshot cannot
      // be trusted: drop it and let the next attempt rebuild from
      // scratch — determinism makes that equivalent, just slower.
      ++out.crashes;
      out.last_error = e.what();
      latest.reset();
      say(std::string{"restore failed: "} + e.what());
    } catch (const sim::CheckViolation& e) {
      ++out.crashes;
      out.last_error = e.what();
      say(std::string{"check violation: "} + e.what());
    } catch (const std::exception& e) {
      ++out.crashes;
      out.last_error = e.what();
      say(std::string{"error: "} + e.what());
    }
    if (out.completed) break;
  }
  out.gave_up = !out.completed;
  if (out.gave_up) say("retry budget exhausted; giving up: " + out.last_error);

  if (obs::metrics_enabled()) {
    obs::CountInc("resilience.world.checkpoints", out.checkpoints_taken);
    obs::CountInc("resilience.world.restores", static_cast<std::uint64_t>(out.restores));
    obs::CountInc("resilience.world.quarantines", out.quarantined_cells.size());
    obs::SetGauge("resilience.world.completed", out.completed ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace athena::resilience
