#include "resilience/world_supervisor.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/barrier.hpp"
#include "sim/runner.hpp"
#include "sim/wall_clock.hpp"

namespace athena::resilience {
namespace {

/// Seed sub-stream for the derived crash window (disjoint from the
/// engine's kChannelStream/kHandoverStream fan-out).
constexpr std::uint64_t kCrashWindowStream = 3'000'000;

/// The world plug-in: a WorldEngine per attempt, whose window hook
/// verifies the restore boundary and snapshots at the configured cadence.
class WorldRun final : public SupervisedRun {
 public:
  WorldRun(const world::WorldConfig& config, const WorldSupervisorOptions& options,
           const WorldFaultSpec& faults, std::uint64_t crash_window,
           WorldSupervisedOutcome& out)
      : config_(config), options_(options), faults_(faults), crash_window_(crash_window),
        blame_cell_(faults.blame_cell != WorldFaultSpec::kNone
                        ? faults.blame_cell % config.cells
                        : (faults.any() ? faults.crash_shard % config.shards : 0)),
        out_(out) {}

  void Attempt(const std::optional<Checkpoint>& from,
               const std::function<void(const Checkpoint&)>& keep) override {
    const std::uint64_t restore_window = from ? SnapshotWindow(config_, *from) : 0;
    const std::uint64_t windows = sim::WindowSchedule::Cover(
        sim::kEpoch, sim::kEpoch + config_.duration, config_.link_latency).windows;
    world::WorldConfig cfg = config_;
    const bool armed = faults_.any() && kills_done_ < faults_.max_kills && !quarantined_;
    cfg.crash_shard = armed ? faults_.crash_shard : world::WorldConfig::kNoCrash;
    cfg.crash_window = armed ? crash_window_ : 0;
    if (quarantined_) {
      // Quarantine from the start of the crash window: one tick past the
      // W_{crash-1} boundary, so every boundary at or before it — the
      // restore-verify point included — replays untouched.
      const std::int64_t at_us =
          static_cast<std::int64_t>(crash_window_ - 1) * cfg.link_latency.count() + 1;
      cfg.quarantines.push_back(
          world::WorldConfig::QuarantineSpec{blame_cell_, sim::TimePoint{sim::Duration{at_us}}});
    }

    world::WorldEngine engine(cfg);
    const auto attempt_t0 = sim::WallClock::now();
    engine.set_window_hook([&](std::uint64_t k) {
      if (from && k == restore_window) {
        // The restore contract: the replayed boundary must reproduce the
        // snapshot byte-for-byte — state digest and canonical-order
        // pending mailbox alike — before the run is allowed to continue.
        const std::uint64_t digest = engine.Digest();
        const auto mailbox = engine.PendingMailRecords();
        if (digest != from->state_digest || !(mailbox == from->mailbox)) {
          throw CheckpointError(DescribeWorldDivergence(*from, k, digest, mailbox));
        }
        out_.restore_replay_seconds += sim::SecondsSince(attempt_t0);
      }
      if (options_.checkpoint_every_windows > 0 &&
          k % options_.checkpoint_every_windows == 0 && k > restore_window && k < windows) {
        const Checkpoint snapshot = SnapshotWorld(engine, k);
        ++out_.checkpoints_taken;
        out_.last_snapshot_bytes = snapshot.SerializedBytes();
        if (options_.on_checkpoint) options_.on_checkpoint(snapshot);
        keep(snapshot);
      }
    });
    out_.result = engine.Run();
  }

  [[nodiscard]] std::string RestartPoint(const std::optional<Checkpoint>& from) const override {
    return from ? "snapshot at window " + std::to_string(SnapshotWindow(config_, *from))
                : std::string{"scratch (no snapshot yet)"};
  }

  void OnInjectedCrash() override {
    ++kills_done_;
    if (quarantined_ || ++blame_crashes_ <= options_.cell_restart_budget) return;
    quarantined_ = true;
    out_.quarantined_cells.push_back(blame_cell_);
    if (options_.on_event) {
      options_.on_event("cell " + std::to_string(blame_cell_) +
                        " exhausted its restart budget (" +
                        std::to_string(options_.cell_restart_budget) +
                        "); quarantining it and evacuating its UEs");
    }
  }

 private:
  const world::WorldConfig& config_;
  const WorldSupervisorOptions& options_;
  const WorldFaultSpec& faults_;
  const std::uint64_t crash_window_;
  const std::size_t blame_cell_;
  WorldSupervisedOutcome& out_;
  int kills_done_ = 0;
  int blame_crashes_ = 0;
  bool quarantined_ = false;
};

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

WorldSupervisedOutcome WorldSupervisor::Drive(const WorldFaultSpec& faults,
                                              const Checkpoint* start) {
  if (start != nullptr) {
    ValidateIdentity(*start, WorldConfigFingerprint(config_), config_.seed);
    (void)SnapshotWindow(config_, *start);  // throws unless on this run's window grid
  }
  WorldSupervisedOutcome out;
  WorldRun run{config_, options_, faults, faults.any() ? ResolveCrashWindow(faults) : 0, out};
  Supervise(run, start, options_, out);

  if (obs::metrics_enabled()) {
    obs::CountInc("resilience.world.checkpoints", out.checkpoints_taken);
    obs::CountInc("resilience.world.restores", static_cast<std::uint64_t>(out.restores));
    obs::CountInc("resilience.world.quarantines", out.quarantined_cells.size());
    obs::SetGauge("resilience.world.completed", out.completed ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace athena::resilience
