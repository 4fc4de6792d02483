// Live-diagnosis overhead baseline.
//
// Three configurations of the same stressed Fig. 2 session second (fading
// radio, so the detectors have real work), written to BENCH_live.json
// (path = argv[1], default "BENCH_live.json"):
//
//   1. detectors_off — observability fully disabled: the null-sink fast
//      path. The "--diagnose off costs nothing" bound compares to this.
//   2. detectors_on  — the live engine alone as the installed trace sink
//      (no recorder buffering): the incremental cost of streaming
//      detection, plus what the detectors concluded.
//   3. full_obs_live — recorder + live engine through the TraceFanout:
//      what athena_cli pays with --trace and --diagnose together.
//
// run_bench_live.sh wraps this up.
//
// Methodology: the three configurations run strictly interleaved
// (off, live, both, off, live, both, ...) so host drift hits all of them
// equally, and each configuration's cost is the MEDIAN of its per-rep
// times — a scheduler hiccup landing on one rep (these sessions are
// sub-millisecond) no longer poisons a whole phase.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "obs/live/anomaly.hpp"
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

/// One simulated stressed session second (detectors need HARQ + BSR
/// activity to exercise their full paths).
void RunSessionSecond(sim::Simulator& sim) {
  app::SessionConfig config;
  config.channel = ran::ChannelModel::FadingRadio();
  app::Session session{sim, config};
  session.Run(1s);
  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  if (data.packets.empty()) std::abort();  // keep the work observable
}

struct RepResult {
  std::vector<double> rep_seconds;
  std::uint64_t sim_events = 0;

  void Add(double secs, std::uint64_t events) {
    rep_seconds.push_back(secs);
    sim_events += events;
  }

  [[nodiscard]] double wall_seconds() const {
    double sum = 0.0;
    for (double s : rep_seconds) sum += s;
    return sum;
  }

  /// Robust per-rep cost: the median ignores reps a host hiccup landed on.
  [[nodiscard]] double median_seconds() const {
    std::vector<double> sorted = rep_seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n == 0 ? 0.0
                  : (n % 2 == 1 ? sorted[n / 2]
                                : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]));
  }
};

void MeasureRep(RepResult& into, const std::function<void(sim::Simulator&)>& run) {
  sim::Simulator sim;
  const double secs = WallSeconds([&] { run(sim); });
  into.Add(secs, sim.events_executed());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_live.json";
  constexpr int kReps = 8;

  std::uint64_t anomalies = 0;
  std::uint64_t deliveries = 0;
  std::array<std::uint64_t, obs::live::kAnomalyKindCount> by_kind{};
  std::size_t trace_events = 0;

  // 1. observability fully off.
  const auto run_off = [](sim::Simulator& sim) { RunSessionSecond(sim); };
  // 2. live detectors only.
  const auto run_live = [&](sim::Simulator& sim) {
    obs::ObsSession::Options options;
    options.trace = false;
    options.metrics = false;
    options.live = true;
    obs::ObsSession observability{sim, options};
    RunSessionSecond(sim);
    anomalies += observability.live()->bank().anomaly_count();
    deliveries += observability.live()->deliveries();
    for (std::size_t k = 0; k < by_kind.size(); ++k) {
      by_kind[k] += observability.live()->bank().anomaly_count(
          static_cast<obs::live::AnomalyKind>(k));
    }
  };
  // 3. recorder + live engine through the fanout.
  const auto run_both = [&](sim::Simulator& sim) {
    obs::ObsSession::Options options;
    options.live = true;
    obs::ObsSession observability{sim, options};
    RunSessionSecond(sim);
    trace_events += observability.recorder().size();
  };

  // Untimed warmup (page faults, lazily-built tables), then interleaved
  // timed reps.
  {
    RepResult scratch;
    MeasureRep(scratch, run_off);
    MeasureRep(scratch, run_both);
    anomalies = 0;
    deliveries = 0;
    by_kind = {};
    trace_events = 0;
  }
  RepResult off;
  RepResult live;
  RepResult both;
  for (int i = 0; i < kReps; ++i) {
    MeasureRep(off, run_off);
    MeasureRep(live, run_live);
    MeasureRep(both, run_both);
  }

  const auto overhead = [&](const RepResult& r) {
    const double base = off.median_seconds();
    return base > 0.0 ? r.median_seconds() / base - 1.0 : 0.0;
  };

  std::ofstream os{out_path};
  if (!os) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  os << "{\n";
  os << "  \"reps\": " << kReps << ",\n";
  os << "  \"detectors_off\": {\n";
  os << "    \"wall_seconds\": " << off.wall_seconds() << ",\n";
  os << "    \"median_rep_seconds\": " << off.median_seconds() << ",\n";
  os << "    \"sim_events\": " << off.sim_events << "\n";
  os << "  },\n";
  os << "  \"detectors_on\": {\n";
  os << "    \"wall_seconds\": " << live.wall_seconds() << ",\n";
  os << "    \"median_rep_seconds\": " << live.median_seconds() << ",\n";
  os << "    \"sim_events\": " << live.sim_events << ",\n";
  os << "    \"deliveries_decoded\": " << deliveries << ",\n";
  os << "    \"anomalies\": " << anomalies << ",\n";
  os << "    \"anomalies_by_kind\": {";
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    os << (k > 0 ? ", " : "") << '"'
       << obs::live::SlugFor(static_cast<obs::live::AnomalyKind>(k))
       << "\": " << by_kind[k];
  }
  os << "},\n";
  os << "    \"overhead_fraction\": " << overhead(live) << "\n";
  os << "  },\n";
  os << "  \"full_obs_live\": {\n";
  os << "    \"wall_seconds\": " << both.wall_seconds() << ",\n";
  os << "    \"median_rep_seconds\": " << both.median_seconds() << ",\n";
  os << "    \"sim_events\": " << both.sim_events << ",\n";
  os << "    \"trace_events\": " << trace_events << ",\n";
  os << "    \"overhead_fraction\": " << overhead(both) << "\n";
  os << "  }\n";
  os << "}\n";

  std::cout << "session second x" << kReps << ": off " << off.wall_seconds()
            << " s, live " << live.wall_seconds() << " s ("
            << overhead(live) * 100.0 << "%), trace+live " << both.wall_seconds()
            << " s (" << overhead(both) * 100.0 << "%)\n";
  std::cout << "live diagnosis: " << anomalies << " anomalies over " << kReps
            << " reps, " << deliveries << " deliveries decoded\n";
  std::cout << "wrote " << out_path << '\n';

  // Identical event counts prove the detectors never perturb the run.
  if (off.sim_events != live.sim_events) {
    std::cerr << "ERROR: live detectors changed the simulation ("
              << off.sim_events << " vs " << live.sim_events << " events)\n";
    return 1;
  }
  return 0;
}
