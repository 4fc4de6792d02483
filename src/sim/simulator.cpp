#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "sim/wall_clock.hpp"

namespace athena::sim {

void Simulator::RunUntil(TimePoint deadline) {
  if (!hooks_.empty() || profiling_) {
    RunUntilInstrumented(deadline);
    return;
  }
  std::uint64_t ran = 0;
  while (!queue_.empty()) {
    const TimePoint next = queue_.next_time();
    if (next > deadline) break;
    auto fired = queue_.PopNext();
    now_ = fired.when;
    fired.cb();
    ++executed_;
    if (++ran > event_budget_) throw EventBudgetExceeded{};
  }
  if (deadline != kTimeInfinity && deadline > now_) now_ = deadline;
}

void Simulator::RunUntilInstrumented(TimePoint deadline) {
  const TimePoint virtual_begin = now_;
  const auto run_start = WallClock::now();
  const std::uint64_t executed_at_entry = executed_;
  std::uint64_t ran = 0;
  while (!queue_.empty()) {
    const TimePoint next = queue_.next_time();
    if (next > deadline) break;
    profile_.queue_high_water = std::max(profile_.queue_high_water, queue_.size());
    auto fired = queue_.PopNext();
    now_ = fired.when;
    if (profiling_ && ++profile_tick_ >= profile_sample_every_) {
      profile_tick_ = 0;
      const auto cb_start = WallClock::now();
      fired.cb();
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - cb_start)
              .count());
      ++profile_.callbacks_sampled;
      profile_.callback_ns_total += ns;
      profile_.callback_ns_max = std::max(profile_.callback_ns_max, ns);
    } else {
      fired.cb();
    }
    ++executed_;
    for (SimHooks* h : hooks_) h->OnEventExecuted(now_, queue_.size());
    if (++ran > event_budget_) throw EventBudgetExceeded{};
  }
  if (deadline != kTimeInfinity && deadline > now_) now_ = deadline;
  const std::uint64_t events = executed_ - executed_at_entry;
  if (profiling_) {
    profile_.events += events;
    profile_.run_wall_seconds +=
        std::chrono::duration<double>(WallClock::now() - run_start).count();
  }
  if (events > 0) {
    for (SimHooks* h : hooks_) h->OnRunCompleted(virtual_begin, now_, events);
  }
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  auto fired = queue_.PopNext();
  now_ = fired.when;
  fired.cb();
  ++executed_;
  for (SimHooks* h : hooks_) h->OnEventExecuted(now_, queue_.size());
  return true;
}

void PeriodicTimer::Start(Duration initial_delay) {
  Stop();
  running_ = true;
  pending_ = sim_.ScheduleAfter(initial_delay, [this] { Fire(); });
}

void PeriodicTimer::Stop() {
  if (running_) sim_.Cancel(pending_);
  running_ = false;
}

void PeriodicTimer::Fire() {
  if (!running_) return;
  // Re-arm before ticking so the callback may Stop() or re-phase us.
  pending_ = sim_.ScheduleAfter(period_, [this] { Fire(); });
  tick_();
}

}  // namespace athena::sim
