#include "resilience/supervisor.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>

#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"

namespace athena::resilience {
namespace {

/// Per-attempt heartbeat state shared between the simulation thread
/// (writer, via AttemptHooks) and the watchdog monitor thread (reader).
struct Heartbeat {
  std::atomic<std::int64_t> virtual_us{0};
  std::atomic<std::uint64_t> beats{0};
  std::atomic<bool> cancel{false};
};

/// The session attempt's kernel observer: injects the configured process
/// faults and, when a watchdog runs, feeds its heartbeat and honours its
/// cancel flag. `kills_done` outlives the attempt, so the kill budget is
/// global across restarts.
class AttemptHooks final : public sim::SimHooks {
 public:
  AttemptHooks(const ProcessFaultSpec& spec, int& kills_done, Heartbeat* hb)
      : spec_(spec), kills_done_(kills_done), hb_(hb) {}

  void OnEventExecuted(sim::TimePoint t, std::size_t /*queue_depth*/) override {
    if (kills_done_ < spec_.max_kills) InjectFaults(t);
    if (hb_ == nullptr) return;
    hb_->virtual_us.store(t.us(), std::memory_order_relaxed);
    hb_->beats.fetch_add(1, std::memory_order_relaxed);
    if (hb_->cancel.load(std::memory_order_relaxed)) {
      throw RunStalled("watchdog cancelled this run: no virtual-time progress (stuck at " +
                       sim::ToString(t) + ")");
    }
  }
  void OnRunCompleted(sim::TimePoint, sim::TimePoint, std::uint64_t) override {}

 private:
  void InjectFaults(sim::TimePoint t) {
    ++events_seen_;
    std::string why;
    if (t >= spec_.kill_at) {
      why = "virtual time reached " + sim::ToString(t);
    } else if (spec_.kill_every_events > 0 && events_seen_ % spec_.kill_every_events == 0) {
      why = std::to_string(events_seen_) + " events into the attempt (every " +
            std::to_string(spec_.kill_every_events) + ")";
    } else {
      return;
    }
    ++kills_done_;
    throw SimulatedCrash("injected crash: " + why);
  }

  const ProcessFaultSpec& spec_;
  int& kills_done_;
  Heartbeat* hb_;
  std::uint64_t events_seen_ = 0;
};

/// Starts the wall-clock monitor, which stops and joins when the returned
/// thread is destroyed. It cancels the attempt when virtual time freezes
/// while events keep firing (livelock). A callback that never returns
/// produces zero beats — that cannot be interrupted safely in-process, so
/// it is *reported* through `hard_stall` and the monitor keeps waiting
/// for the workload or the harness to act.
std::jthread StartWatchdog(Heartbeat& hb, std::chrono::milliseconds stall_timeout,
                           bool& hard_stall) {
  return std::jthread([&hb, stall_timeout, &hard_stall](std::stop_token stop) {
    std::mutex mu;
    std::condition_variable_any cv;
    std::unique_lock<std::mutex> lock(mu);
    std::int64_t last_virtual = hb.virtual_us.load(std::memory_order_relaxed);
    std::uint64_t last_beats = hb.beats.load(std::memory_order_relaxed);
    while (!cv.wait_for(lock, stop, stall_timeout, [&stop] { return stop.stop_requested(); })) {
      const std::int64_t v = hb.virtual_us.load(std::memory_order_relaxed);
      const std::uint64_t b = hb.beats.load(std::memory_order_relaxed);
      if (v == last_virtual && b != last_beats) {
        // Events fire, clock frozen: livelock. The hook will throw
        // RunStalled at the next event boundary.
        hb.cancel.store(true, std::memory_order_relaxed);
      } else if (v == last_virtual) {
        // No events at all for a full window: a callback is stuck and
        // cannot be interrupted from inside the process. Report it.
        hard_stall = true;
      }
      last_virtual = v;
      last_beats = b;
    }
  });
}

/// The session plug-in: a fresh CheckpointingDriver per attempt, with the
/// process-fault and watchdog hooks on its simulator.
class SessionRun final : public SupervisedRun {
 public:
  SessionRun(const RunPlan& plan, const SupervisorOptions& options,
             const ProcessFaultSpec& faults, SupervisedOutcome& out)
      : plan_(plan), options_(options), faults_(faults), out_(out) {}

  void Attempt(const std::optional<Checkpoint>& from,
               const std::function<void(const Checkpoint&)>& keep) override {
    Heartbeat heartbeat;
    AttemptHooks hooks{faults_, kills_done_, options_.watchdog ? &heartbeat : nullptr};
    RunPlan plan = plan_;
    plan.on_checkpoint = [&](const Checkpoint& c) {
      keep(c);
      if (plan_.on_checkpoint) plan_.on_checkpoint(c);
    };
    plan.on_simulator = [&](sim::Simulator& sim) {
      sim.AddHooks(&hooks);
      if (plan_.on_simulator) plan_.on_simulator(sim);
    };
    std::jthread monitor;
    if (options_.watchdog) {
      monitor = StartWatchdog(heartbeat, options_.stall_timeout, out_.hard_stall_reported);
    }
    CheckpointingDriver driver{std::move(plan)};
    out_.outcome = from ? driver.Resume(*from) : driver.Run();
  }

  [[nodiscard]] std::string RestartPoint(const std::optional<Checkpoint>& from) const override {
    return from ? "checkpoint at " + sim::ToString(from->virtual_time)
                : std::string{"scratch (no checkpoint yet)"};
  }

 private:
  const RunPlan& plan_;
  const SupervisorOptions& options_;
  const ProcessFaultSpec& faults_;
  SupervisedOutcome& out_;
  int kills_done_ = 0;
};

}  // namespace

void Supervise(SupervisedRun& run, const Checkpoint* start,
               const SupervisionPolicy& policy, SupervisionCounters& out) {
  const auto say = [&](const std::string& msg) {
    if (policy.on_event) policy.on_event(msg);
  };
  const auto failed = [&](int& counter, const char* what, const std::exception& e) {
    ++counter;
    out.last_error = e.what();
    say(what + out.last_error);
  };

  // The latest checkpoint is the restart point; seed it from --restore.
  std::optional<Checkpoint> latest;
  if (start != nullptr) latest = *start;
  const auto keep = [&latest](const Checkpoint& c) { latest = c; };

  for (int attempt = 0; attempt <= policy.max_restarts && !out.completed; ++attempt) {
    // A copy: the attempt replaces `latest` while it may still read this.
    const std::optional<Checkpoint> from = latest;
    if (attempt > 0) {
      ++out.restarts;
      say("restart " + std::to_string(attempt) + "/" + std::to_string(policy.max_restarts) +
          " from " + run.RestartPoint(from));
    }
    if (from) ++out.restores;

    try {
      sim::ScopedCheckThrow contain;
      run.Attempt(from, keep);
      out.completed = true;
    } catch (const sim::InjectedCrash& e) {
      failed(out.crashes, "crash: ", e);
      run.OnInjectedCrash();
    } catch (const CheckpointError& e) {
      // Replay divergence (or a poisoned checkpoint). It cannot be
      // trusted: drop it and let the next attempt rebuild from scratch —
      // determinism makes that equivalent, just slower.
      latest.reset();
      failed(out.crashes, "restore failed: ", e);
    } catch (const RunStalled& e) {
      failed(out.stalls, "stall: ", e);
    } catch (const sim::CheckViolation& e) {
      failed(out.crashes, "check violation: ", e);
    } catch (const std::exception& e) {
      failed(out.crashes, "error: ", e);
    }
  }
  out.gave_up = !out.completed;
  if (out.gave_up) say("retry budget exhausted; giving up: " + out.last_error);
}

Supervisor::Supervisor(RunPlan plan, SupervisorOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

SupervisedOutcome Supervisor::Drive(const ProcessFaultSpec& faults,
                                    const Checkpoint* start) {
  if (start != nullptr) ValidateRestore(plan_, *start);
  SupervisedOutcome out;
  SessionRun run{plan_, options_, faults, out};
  Supervise(run, start, options_, out);

  if (obs::metrics_enabled()) {
    obs::SetGauge("resilience.supervisor.crashes", static_cast<double>(out.crashes));
    obs::SetGauge("resilience.supervisor.stalls", static_cast<double>(out.stalls));
    obs::SetGauge("resilience.supervisor.restarts", static_cast<double>(out.restarts));
    obs::SetGauge("resilience.supervisor.completed", out.completed ? 1.0 : 0.0);
    // Published here, not on the monitor thread: the metrics registry is
    // thread-local, and every monitor has been joined by now.
    if (out.hard_stall_reported) obs::SetGauge("resilience.supervisor.hard_stall", 1.0);
  }
  return out;
}

}  // namespace athena::resilience
