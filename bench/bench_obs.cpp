// Observability overhead + simulator self-profiling baseline.
//
// Three measurements, written to BENCH_obs.json (path = argv[1], default
// "BENCH_obs.json" in the working directory):
//
//   1. event_queue  — the kernel alone with profiling hooks on: raw
//      events/sec, queue high-water mark, per-callback wall time.
//   2. session_off  — a full Fig. 2 session second with observability
//      disabled (the null-sink fast path everything else compares to).
//   3. session_obs  — the same session with tracing + metrics + kernel
//      profiling all on, plus the trace volume per layer.
//
// The off/on wall-time ratio is the number the "<2% disabled overhead"
// acceptance bound watches; run_bench_obs.sh wraps this up.
//
// Methodology: off and on reps run strictly interleaved so host drift
// hits both equally, and the overhead fraction compares the MEDIAN
// per-rep times — a scheduler hiccup landing on one sub-millisecond rep
// no longer poisons a whole phase.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "sim/wall_clock.hpp"

namespace {

using namespace athena;
using namespace std::chrono_literals;

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = sim::WallClock::now();
  fn();
  return sim::SecondsSince(t0);
}

/// One simulated session second, identical config to BM_FullSessionSecond.
void RunSessionSecond(sim::Simulator& sim) {
  app::SessionConfig config;
  config.channel.base_bler = 0.08;
  app::Session session{sim, config};
  session.Run(1s);
  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  if (data.packets.empty()) std::abort();  // keep the work observable
}

/// Robust per-rep cost: the median ignores reps a host hiccup landed on.
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? samples[n / 2]
                              : 0.5 * (samples[n / 2 - 1] + samples[n / 2]));
}

double Sum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  constexpr int kSessionReps = 8;
  constexpr int kQueueEvents = 200'000;

  // --- 1. kernel-only profile ---
  sim::Simulator kernel;
  kernel.set_profiling(true);
  for (int i = 0; i < kQueueEvents; ++i) {
    kernel.ScheduleAfter(sim::Duration{i % 997}, [] {});
  }
  kernel.RunAll();
  const sim::SimProfile queue_profile = kernel.profile();

  // --- 2 + 3. full session, observability off vs tracing + metrics +
  // kernel profiling on, interleaved ---
  std::vector<double> off_reps;
  std::vector<double> on_reps;
  std::uint64_t off_events = 0;
  std::uint64_t on_events = 0;
  std::size_t trace_events = 0;
  std::size_t layer_counts[obs::kLayerCount] = {};
  sim::SimProfile session_profile;  // last rep's profile (representative)
  std::uint64_t metric_count = 0;
  {
    sim::Simulator warmup;  // untimed: page faults, lazy tables
    RunSessionSecond(warmup);
  }
  for (int i = 0; i < kSessionReps; ++i) {
    {
      sim::Simulator sim;
      off_reps.push_back(WallSeconds([&] { RunSessionSecond(sim); }));
      off_events += sim.events_executed();
    }
    {
      sim::Simulator sim;
      obs::ObsSession observability{
          sim, obs::ObsSession::Options{.metrics_period = sim::Duration{100'000},
                                        .profile_sim = true}};
      on_reps.push_back(WallSeconds([&] { RunSessionSecond(sim); }));
      on_events += sim.events_executed();
      trace_events += observability.recorder().size();
      for (std::size_t l = 0; l < obs::kLayerCount; ++l) {
        layer_counts[l] += observability.recorder().CountLayer(static_cast<obs::Layer>(l));
      }
      session_profile = sim.profile();
      metric_count = observability.registry().CounterValue("net.captured");
    }
  }
  const double off_seconds = Sum(off_reps);
  const double on_seconds = Sum(on_reps);

  const double off_median = Median(off_reps);
  const double overhead = off_median > 0.0 ? Median(on_reps) / off_median - 1.0 : 0.0;

  std::ofstream os{out_path};
  if (!os) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  os << "{\n";
  os << "  \"event_queue\": {\n";
  os << "    \"events\": " << queue_profile.events << ",\n";
  os << "    \"events_per_sec_wall\": " << queue_profile.events_per_second() << ",\n";
  os << "    \"mean_callback_ns\": " << queue_profile.mean_callback_ns() << ",\n";
  os << "    \"max_callback_ns\": " << queue_profile.callback_ns_max << ",\n";
  os << "    \"queue_high_water\": " << queue_profile.queue_high_water << "\n";
  os << "  },\n";
  os << "  \"session_off\": {\n";
  os << "    \"reps\": " << kSessionReps << ",\n";
  os << "    \"wall_seconds\": " << off_seconds << ",\n";
  os << "    \"median_rep_seconds\": " << Median(off_reps) << ",\n";
  os << "    \"sim_events\": " << off_events << "\n";
  os << "  },\n";
  os << "  \"session_obs\": {\n";
  os << "    \"reps\": " << kSessionReps << ",\n";
  os << "    \"wall_seconds\": " << on_seconds << ",\n";
  os << "    \"median_rep_seconds\": " << Median(on_reps) << ",\n";
  os << "    \"sim_events\": " << on_events << ",\n";
  os << "    \"trace_events\": " << trace_events << ",\n";
  os << "    \"trace_events_by_layer\": {";
  for (std::size_t l = 0; l < obs::kLayerCount; ++l) {
    os << (l > 0 ? ", " : "") << '"' << obs::ToString(static_cast<obs::Layer>(l))
       << "\": " << layer_counts[l];
  }
  os << "},\n";
  os << "    \"net_captured_packets\": " << metric_count << ",\n";
  os << "    \"profile\": {\n";
  os << "      \"events_per_sec_wall\": " << session_profile.events_per_second() << ",\n";
  os << "      \"mean_callback_ns\": " << session_profile.mean_callback_ns() << ",\n";
  os << "      \"max_callback_ns\": " << session_profile.callback_ns_max << ",\n";
  os << "      \"queue_high_water\": " << session_profile.queue_high_water << "\n";
  os << "    }\n";
  os << "  },\n";
  os << "  \"obs_on_overhead_fraction\": " << overhead << "\n";
  os << "}\n";

  std::cout << "event queue: " << queue_profile.events_per_second() / 1e6
            << " M events/s, high water " << queue_profile.queue_high_water << '\n';
  std::cout << "session second x" << kSessionReps << ": off " << off_seconds
            << " s, obs on " << on_seconds << " s (overhead " << overhead * 100.0
            << "%)\n";
  std::cout << "trace volume: " << trace_events << " events over " << kSessionReps
            << " reps\n";
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
