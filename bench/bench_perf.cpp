// Hot-path performance baseline, written to BENCH_perf.json (path =
// argv[1], default "BENCH_perf.json"):
//
//   1. event_queue   — the shared schedule/cancel/pop workload
//      (queue_workload.hpp) on the production queue vs the pre-overhaul
//      replica (legacy_event_queue.hpp). `speedup_vs_legacy` is the
//      number the "≥2× schedule+pop throughput" acceptance bound watches.
//   2. trace_emit    — ns per enabled TraceInstant into the chunked
//      recorder. `ns_per_event` measures the production batched path
//      (TraceBatcher → TraceRecorder::EmitBatch, one virtual call and a
//      bulk chunk copy per 256 events — what the ingest pipeline and the
//      sweep runner use); `ns_per_event_direct` keeps the historical
//      per-event virtual-dispatch number for comparison.
//   3. sweep         — a 16-run derived-seed session sweep (stressed
//      fading config, 30 virtual seconds per run, so serial wall time
//      is O(seconds) and parallel scaling is measured against a real
//      workload, not scheduler noise) executed serially and then at an
//      explicit 2/4/8-job ladder (not "hardware concurrency", which
//      collapses to jobs=1 on a single-core host and measures nothing);
//      each rung records wall time, speedup vs serial, and byte-identity
//      of the exported outputs (`deterministic`). A second sweep on the
//      reused 8-job runner checks the persistent pool: the repeat must
//      not regress past 1.5x the first (no per-Run thread respawn).
//   4. overheads     — the BENCH_obs/BENCH_live overhead fractions
//      recomputed with the same 8-rep methodology, so one file carries
//      every acceptance number for this subsystem.
//
// run_bench_perf.sh wraps this up.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "legacy_event_queue.hpp"
#include "obs/obs.hpp"
#include "queue_workload.hpp"
#include "sim/event_queue.hpp"
#include "sim/runner.hpp"
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

/// Robust per-rep cost: the median ignores reps a host hiccup landed on.
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? samples[n / 2]
                              : 0.5 * (samples[n / 2 - 1] + samples[n / 2]));
}

template <typename Queue>
double QueueRepSeconds(std::uint64_t* counter, int items) {
  Queue q;
  return WallSeconds([&] { bench::QueueWorkload(q, counter, items); });
}

/// Measures both queues with strictly alternating reps, so slow phases of
/// a shared/noisy host (CPU steal, frequency drift) hit both
/// implementations equally instead of biasing whichever ran second.
/// Returns {new_ops_per_sec, legacy_ops_per_sec}.
std::array<double, 2> QueueThroughputs(int reps, int items) {
  std::uint64_t counter = 0;
  // Untimed warmup: heap growth and page faults land outside the clock.
  QueueRepSeconds<sim::EventQueue>(&counter, items);
  QueueRepSeconds<bench::legacy::EventQueue>(&counter, items);
  double new_secs = 0.0;
  double legacy_secs = 0.0;
  for (int r = 0; r < reps; ++r) {
    new_secs += QueueRepSeconds<sim::EventQueue>(&counter, items);
    legacy_secs += QueueRepSeconds<bench::legacy::EventQueue>(&counter, items);
  }
  if (counter == 0) std::abort();  // keep the work observable
  const double total = static_cast<double>(reps) * items;
  return {new_secs > 0.0 ? total / new_secs : 0.0,
          legacy_secs > 0.0 ? total / legacy_secs : 0.0};
}

/// One simulated session second; `stressed` matches bench_live's fading
/// configuration, plain matches bench_obs's.
void RunSessionSecond(sim::Simulator& sim, bool stressed) {
  app::SessionConfig config;
  if (stressed) {
    config.channel = ran::ChannelModel::FadingRadio();
  } else {
    config.channel.base_bler = 0.08;
  }
  app::Session session{sim, config};
  session.Run(1s);
  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  if (data.packets.empty()) std::abort();
}

/// One sweep run reduced to its exported bytes (trace JSON + metrics CSV
/// + event count) — what the determinism check compares. The stressed
/// fading config over 30 virtual seconds makes a single run tens of
/// wall-milliseconds, so a 16-run sweep is a workload parallel scaling
/// can actually be measured on.
std::string SweepRun(std::uint64_t seed, double* wall_seconds) {
  sim::Simulator sim;
  obs::ObsSession::Options options;
  options.metrics_period = sim::Duration{100'000};
  obs::ObsSession observability{sim, options};
  app::SessionConfig config;
  config.seed = seed;
  config.channel = ran::ChannelModel::FadingRadio();
  std::ostringstream out;
  const double secs = WallSeconds([&] {
    app::Session session{sim, config};
    session.Run(30s);
    out << sim.events_executed() << '\n';
    observability.recorder().WriteJson(out);
    observability.registry().WriteCsv(out);
  });
  if (wall_seconds != nullptr) *wall_seconds = secs;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_perf.json";
  constexpr int kQueueReps = 20;
  constexpr int kQueueItems = 50'000;
  constexpr int kSessionReps = 8;
  constexpr std::size_t kSweepRuns = 16;

  // --- 1. event queue: production vs legacy ---
  const auto [new_ops, legacy_ops] = QueueThroughputs(kQueueReps, kQueueItems);
  const double speedup = legacy_ops > 0.0 ? new_ops / legacy_ops : 0.0;

  // --- 2. trace emit: batched production path + direct comparison ---
  constexpr std::size_t kEmits = 2'000'000;
  const auto emit_workload = [&] {
    for (std::size_t i = 0; i < kEmits; ++i) {
      obs::TraceInstant(obs::Layer::kNet, obs::names::kPktHop,
                        sim::kEpoch + sim::Duration{static_cast<std::int64_t>(i)},
                        {{"packet", static_cast<double>(i)}, {"bytes", 1200.0}});
    }
  };
  double emit_ns = 0.0;
  {
    obs::TraceRecorder recorder;
    obs::TraceBatcher batcher{&recorder};
    obs::ScopedTraceSink scope{&batcher};
    emit_workload();  // untimed warmup (chunk pool grows once)
    const double secs = WallSeconds(emit_workload);
    batcher.Flush();
    if (recorder.size() != 2 * kEmits) std::abort();
    emit_ns = secs * 1e9 / static_cast<double>(kEmits);
  }
  double emit_ns_direct = 0.0;
  {
    obs::TraceRecorder recorder;
    obs::ScopedTraceSink scope{&recorder};
    const double secs = WallSeconds(emit_workload);
    if (recorder.size() != kEmits) std::abort();
    emit_ns_direct = secs * 1e9 / static_cast<double>(kEmits);
  }

  // --- 3. sweep: serial vs an explicit 2/4/8-job ladder, with a
  // determinism check at every rung and per-run wall times for the
  // serial schedule (a run that takes 3× its siblings caps scaling no
  // matter the job count) ---
  std::vector<double> serial_run_secs(kSweepRuns, 0.0);
  const auto sweep_task = [](std::vector<double>* walls) {
    return std::function<std::string(std::size_t)>{[walls](std::size_t i) {
      return SweepRun(sim::DeriveSeed(42, i),
                      walls != nullptr ? &(*walls)[i] : nullptr);
    }};
  };
  SweepRun(sim::DeriveSeed(42, 0), nullptr);  // untimed warmup
  std::vector<std::string> serial_out;
  const double serial_secs = WallSeconds([&] {
    serial_out = sim::ParallelRunner{1}.Map<std::string>(
        kSweepRuns, sweep_task(&serial_run_secs));
  });

  struct SweepRung {
    std::size_t jobs = 0;
    double seconds = 0.0;
    double speedup = 0.0;  ///< serial_secs / seconds
    bool deterministic = false;
  };
  constexpr std::array<std::size_t, 3> kJobLadder{2, 4, 8};
  std::vector<SweepRung> ladder;
  bool deterministic = true;
  sim::ParallelRunner top_runner{kJobLadder.back()};
  for (const std::size_t jobs : kJobLadder) {
    // The top rung reuses `top_runner` so the pool-reuse check below
    // measures a genuinely warm pool.
    std::optional<sim::ParallelRunner> local;
    sim::ParallelRunner& runner =
        jobs == kJobLadder.back() ? top_runner : local.emplace(jobs);
    std::vector<std::string> out;
    SweepRung rung;
    rung.jobs = runner.jobs();
    rung.seconds = WallSeconds([&] {
      out = runner.Map<std::string>(kSweepRuns, sweep_task(nullptr));
    });
    rung.speedup = rung.seconds > 0.0 ? serial_secs / rung.seconds : 0.0;
    rung.deterministic = out == serial_out;
    deterministic = deterministic && rung.deterministic;
    ladder.push_back(rung);
  }

  // Persistent-pool check: a repeat sweep on the already-used runner must
  // reuse its workers. 1.5x headroom absorbs host noise; a pool that
  // respawned threads per Run (or worse, serialized) would blow past it
  // together with startup cost on every one of the 16 tasks.
  const double reuse_first = ladder.back().seconds;
  const double reuse_repeat = WallSeconds([&] {
    (void)top_runner.Map<std::string>(kSweepRuns, sweep_task(nullptr));
  });
  const double reuse_ratio = reuse_first > 0.0 ? reuse_repeat / reuse_first : 0.0;
  const bool reuse_ok = reuse_ratio <= 1.5;

  // --- 4. overhead fractions (bench_obs / bench_live methodology, but
  // with off/on reps strictly interleaved so host noise cancels) ---
  const auto rep_seconds = [&](bool stressed, bool obs_on, bool live_on) {
    sim::Simulator sim;
    std::unique_ptr<obs::ObsSession> observability;
    if (obs_on) {
      obs::ObsSession::Options options;
      if (live_on) {
        options.live = true;
      } else {
        options.metrics_period = sim::Duration{100'000};
        options.profile_sim = true;
      }
      observability = std::make_unique<obs::ObsSession>(sim, options);
    }
    return WallSeconds([&] { RunSessionSecond(sim, stressed); });
  };
  const auto overhead = [&](bool stressed, bool live_on) {
    rep_seconds(stressed, false, false);  // untimed warmup
    rep_seconds(stressed, true, live_on);
    std::vector<double> off_reps;
    std::vector<double> on_reps;
    for (int i = 0; i < kSessionReps; ++i) {
      off_reps.push_back(rep_seconds(stressed, false, false));
      on_reps.push_back(rep_seconds(stressed, true, live_on));
    }
    const double base = Median(off_reps);
    return base > 0.0 ? Median(on_reps) / base - 1.0 : 0.0;
  };
  const double obs_overhead = overhead(false, false);
  const double live_overhead = overhead(true, true);

  std::ofstream os{out_path};
  if (!os) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  os << "{\n";
  os << "  \"event_queue\": {\n";
  os << "    \"workload_items\": " << kQueueItems << ",\n";
  os << "    \"reps\": " << kQueueReps << ",\n";
  os << "    \"ops_per_sec\": " << new_ops << ",\n";
  os << "    \"legacy_ops_per_sec\": " << legacy_ops << ",\n";
  os << "    \"speedup_vs_legacy\": " << speedup << "\n";
  os << "  },\n";
  const auto write_array = [&os](const char* key, const std::vector<double>& v) {
    os << "    \"" << key << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
    os << "],\n";
  };
  os << "  \"trace_emit\": {\n";
  os << "    \"emits\": " << kEmits << ",\n";
  os << "    \"ns_per_event\": " << emit_ns << ",\n";
  os << "    \"ns_per_event_direct\": " << emit_ns_direct << "\n";
  os << "  },\n";
  os << "  \"sweep\": {\n";
  os << "    \"runs\": " << kSweepRuns << ",\n";
  os << "    \"serial_seconds\": " << serial_secs << ",\n";
  write_array("run_seconds_serial", serial_run_secs);
  os << "    \"jobs_ladder\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const SweepRung& rung = ladder[i];
    os << "      {\"jobs\": " << rung.jobs << ", \"seconds\": " << rung.seconds
       << ", \"speedup_vs_serial\": " << rung.speedup << ", \"deterministic\": "
       << (rung.deterministic ? "true" : "false") << "}"
       << (i + 1 < ladder.size() ? "," : "") << '\n';
  }
  os << "    ],\n";
  os << "    \"pool_reuse\": {\n";
  os << "      \"first_seconds\": " << reuse_first << ",\n";
  os << "      \"repeat_seconds\": " << reuse_repeat << ",\n";
  os << "      \"ratio\": " << reuse_ratio << ",\n";
  os << "      \"ok\": " << (reuse_ok ? "true" : "false") << "\n";
  os << "    },\n";
  os << "    \"deterministic\": " << (deterministic ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"session_overheads\": {\n";
  os << "    \"reps\": " << kSessionReps << ",\n";
  os << "    \"obs_on_overhead_fraction\": " << obs_overhead << ",\n";
  os << "    \"full_obs_live_overhead_fraction\": " << live_overhead << "\n";
  os << "  }\n";
  os << "}\n";

  std::cout << "event queue: " << new_ops / 1e6 << " M ops/s vs legacy "
            << legacy_ops / 1e6 << " M ops/s (x" << speedup << ")\n";
  std::cout << "trace emit: " << emit_ns << " ns/event batched, " << emit_ns_direct
            << " ns/event direct\n";
  std::cout << "sweep x" << kSweepRuns << ": serial " << serial_secs << " s";
  for (const SweepRung& rung : ladder) {
    std::cout << ", " << rung.jobs << " jobs " << rung.seconds << " s (x"
              << rung.speedup << ")";
  }
  std::cout << ", deterministic=" << (deterministic ? "yes" : "no") << '\n';
  std::cout << "pool reuse: repeat/first = " << reuse_ratio << " ("
            << (reuse_ok ? "ok" : "REGRESSED") << ")\n";
  std::cout << "session overheads: obs " << obs_overhead * 100.0 << "%, obs+live "
            << live_overhead * 100.0 << "%\n";
  std::cout << "wrote " << out_path << '\n';

  if (!deterministic) {
    std::cerr << "ERROR: parallel sweep diverged from serial\n";
    return 1;
  }
  if (!reuse_ok) {
    std::cerr << "ERROR: repeated sweep regressed on the reused worker pool\n";
    return 1;
  }
  return 0;
}
