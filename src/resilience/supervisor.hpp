// Watchdog supervision: crash-point injection, stall detection, and
// automatic restart-from-latest-checkpoint with bounded retries.
//
// One loop (Supervise) supervises every long run, a single session here
// and the sharded world in world_supervisor.hpp. The run is a plug-in
// (SupervisedRun) that runs to the end from a checkpoint or from
// scratch, reporting each checkpoint it takes. The loop owns the policy:
// restart at once from the latest checkpoint, drop a checkpoint whose
// replay fails verification and rebuild from scratch, give up after
// max_restarts. ATHENA_CHECK violations inside the run are contained
// with ScopedCheckThrow: a poisoned run is a failed attempt, not a
// process kill.
//
// The session plug-in wraps a CheckpointingDriver the way an init system
// wraps a daemon: its kernel observer throws SimulatedCrash at the
// ProcessFaultSpec kill points and RunStalled when the watchdog sees a
// livelock. A hard stall (a callback that never returns) cannot be
// interrupted in-process; it is reported, not pretended away.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "resilience/checkpoint.hpp"
#include "sim/check.hpp"
#include "sim/time.hpp"

namespace athena::resilience {

/// An injected process death: the session twin of world::ShardCrash.
class SimulatedCrash : public sim::InjectedCrash {
 public:
  explicit SimulatedCrash(const std::string& what) : sim::InjectedCrash(what) {}
};

/// Raised at the next event boundary after the watchdog cancels a run
/// whose virtual time stopped advancing.
class RunStalled : public std::runtime_error {
 public:
  explicit RunStalled(const std::string& what) : std::runtime_error(what) {}
};

/// Process-level fault points, the resilience counterpart of the data
/// faults in fault::FaultSpec. All disabled by default.
struct ProcessFaultSpec {
  /// Kill the process when virtual time reaches this point.
  sim::TimePoint kill_at = sim::kTimeInfinity;
  /// Kill the process every N executed events (0 = disabled).
  std::uint64_t kill_every_events = 0;
  /// Total kill budget across all restart attempts. Restores replay
  /// through the original kill point, so an unbounded budget would
  /// crash-loop forever; the default kills once and lets the restore
  /// run to completion.
  int max_kills = 1;

  [[nodiscard]] bool any() const {
    return kill_at < sim::kTimeInfinity || kill_every_events > 0;
  }
};

/// The counters every supervised outcome shares, kept by Supervise.
struct SupervisionCounters {
  bool completed = false;
  bool gave_up = false;  ///< retry budget exhausted
  int crashes = 0;       ///< injected crashes, failed restores, CheckViolations, other throws
  int stalls = 0;        ///< watchdog cancellations
  int restarts = 0;      ///< attempts after the first
  int restores = 0;      ///< attempts that began from a checkpoint (replay + verify)
  std::string last_error;
};

/// One supervised run, as the loop sees it.
class SupervisedRun {
 public:
  virtual ~SupervisedRun() = default;
  /// Runs to the end from `from` (replayed, verified — CheckpointError on
  /// divergence — then continued) or, when empty, from scratch, passing
  /// every checkpoint taken to `keep`.
  virtual void Attempt(const std::optional<Checkpoint>& from,
                       const std::function<void(const Checkpoint&)>& keep) = 0;
  /// Names a restart point for the log ("checkpoint at 1500.000ms").
  [[nodiscard]] virtual std::string RestartPoint(
      const std::optional<Checkpoint>& from) const = 0;
  /// Bookkeeping after an attempt died of an injected crash.
  virtual void OnInjectedCrash() {}
};

/// The retry policy every supervisor shares.
struct SupervisionPolicy {
  /// Restart attempts after the first run; exhausted → gave_up.
  int max_restarts = 3;
  /// Human-readable supervision log (crash, restart, quarantine, give-up).
  std::function<void(const std::string&)> on_event;
};

/// Attempts `run` until it completes or `policy.max_restarts` restarts
/// are spent, restarting from the latest checkpoint (initially `start`).
void Supervise(SupervisedRun& run, const Checkpoint* start,
               const SupervisionPolicy& policy, SupervisionCounters& out);

struct SupervisorOptions : SupervisionPolicy {
  /// Wall-clock window with no virtual-time progress before the
  /// watchdog cancels the attempt.
  std::chrono::milliseconds stall_timeout{2000};
  /// Run the wall-clock monitor thread (off = crash recovery only).
  bool watchdog = true;
};

struct SupervisedOutcome : SupervisionCounters {
  RunOutcome outcome;                ///< valid iff `completed`
  bool hard_stall_reported = false;  ///< monitor saw zero beats for a full window
};

/// Runs a plan to completion under crash/stall supervision.
class Supervisor {
 public:
  explicit Supervisor(RunPlan plan, SupervisorOptions options = {});

  /// Supervised run with injected process faults.
  [[nodiscard]] SupervisedOutcome Run(const ProcessFaultSpec& faults) {
    return Drive(faults, nullptr);
  }
  /// Supervised run with no injected faults (still contains real
  /// crashes/stalls of the workload itself).
  [[nodiscard]] SupervisedOutcome Run() { return Run(ProcessFaultSpec{}); }

  /// Supervised run that starts from an externally loaded checkpoint
  /// (the CLI's --restore path). Throws CheckpointError before any
  /// attempt when `start` belongs to another run (ValidateRestore).
  [[nodiscard]] SupervisedOutcome RunFrom(const Checkpoint& start,
                                          const ProcessFaultSpec& faults) {
    return Drive(faults, &start);
  }

 private:
  [[nodiscard]] SupervisedOutcome Drive(const ProcessFaultSpec& faults,
                                        const Checkpoint* start);

  RunPlan plan_;
  SupervisorOptions options_;
};

}  // namespace athena::resilience
