// athena_perfbench — the repository benchmark program (run through
// perfbench/run.py, which builds it first).
//
//   athena_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: session_5g, session_supervised, fleet_sweep, world_sharded.
// With --trace 0 the workload's operations repeat for S seconds and the
// end-to-end metrics are reported as medians over repetitions. With
// --trace 1 the benchmark tours all four workloads with the program's own
// SimProfile/TraceRecorder on and clock spans around each public call,
// and reports every per-layer metric on the workload it belongs to.
//
// Every run checks outputs: repeated operations must reproduce their
// digests, the layouts under test must match their one-thread oracle,
// and the canonical seed must reproduce the digests pinned in pinned.hpp.
// A mismatch is a failed operation and makes the exit code nonzero.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "pinned.hpp"
#include "sim/runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using athena::sim::DeriveSeed;

struct Args {
  std::string workload;
  std::uint64_t seed = kCanonicalSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_pins = false;
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "athena_perfbench: " << why << "\n"
            << "usage: athena_perfbench --workload "
               "session_5g|session_supervised|fleet_sweep|world_sharded --seed N "
               "--seconds S --trace 0|1 [--git-rev R] [--src-digest D]\n"
            << "       athena_perfbench --print-pins\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-pins") {
      args.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--git-rev") {
        args.git_rev = value;
      } else if (flag == "--src-digest") {
        args.src_digest = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.print_pins && args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0.0) Usage("--seconds must be > 0");
  return args;
}

/// CPUs this process may run on (honours affinity masks, unlike
/// hardware_concurrency).
unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Shard count of world_sharded and the reference layout of fleet_sweep.
unsigned Layout() { return std::min(4U, Nproc()); }
/// fleet_sweep producers: one core stays with the collector thread.
unsigned Producers() { return std::max(1U, Layout() - 1); }

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- result bookkeeping -----------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  /// Counts one checked operation; a mismatch is a failure with a reason.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Human-readable distribution line (median, quartiles, spread, the
/// highest percentile with ten samples beyond it, sample count).
void Describe(const std::string& name, const std::vector<double>& samples,
              const std::string& unit) {
  const Quartiles q = QuartilesOf(samples);
  std::cout << "  " << name << ": median " << Num(Median(samples)) << ' ' << unit
            << ", q1 " << q.q1 << ", q3 " << q.q3 << ", spread "
            << RelativeSpread(q) * 100.0 << "%";
  if (const auto tail = HighestTailPercentile(samples)) {
    std::cout << ", p" << tail->percentile << " " << tail->value;
  }
  std::cout << ", n=" << samples.size() << '\n';
}

/// Repeats `rep` (rep 0 is an untimed warm-up) until `seconds` of timed
/// repetitions have run, at least `min_timed` of them.
void Repeat(double seconds, int min_timed, const std::function<void(int rep)>& rep) {
  rep(0);
  const auto t0 = Clock::now();
  for (int r = 1;; ++r) {
    rep(r);
    if (r >= min_timed && SecondsBetween(t0, Clock::now()) >= seconds) break;
  }
}

struct E2e {
  std::vector<double> setup_s;
  std::vector<double> rate;  ///< session-seconds per wall second, per rep
  std::vector<double> cpu;   ///< CPU seconds per session-second, per rep
  std::vector<double> ok;    ///< succeeded share, per rep

  void Report(Outcome& out, double peak_rss_mb) const {
    std::cout << "end-to-end (medians over timed repetitions):\n";
    Describe("setup_s", setup_s, "s");
    Describe("session_s_per_s", rate, "s/s");
    Describe("cpu_s_per_session_s", cpu, "s/s");
    Describe("ok_frac", ok, "fraction");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("session_s_per_s", Median(rate), "s/s");
    out.Add("cpu_s_per_session_s", Median(cpu), "s/s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("ok_frac", Median(ok), "fraction");
  }
};

// --- untraced workloads -----------------------------------------------

std::vector<std::uint64_t> SessionDigests(std::uint64_t base) {
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < kSessionsPerRep; ++i) {
    digests.push_back(RunSession5g(DeriveSeed(base, i), false).report_digest);
  }
  return digests;
}

void MeasureSession5g(const Args& args, Outcome& out) {
  E2e e2e;
  std::vector<std::uint64_t> first;
  Repeat(args.seconds, 3, [&](int rep) {
    std::size_t ok = 0;
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<double> setups;
    for (std::size_t i = 0; i < kSessionsPerRep; ++i) {
      const SessionOp op = RunSession5g(DeriveSeed(args.seed, i), false);
      setups.push_back(op.setup_s);
      if (rep == 0) first.push_back(op.report_digest);
      const bool match = op.report_digest != 0 && op.report_digest == first[i];
      out.Check(match, "session_5g session " + std::to_string(i) + " rep " +
                           std::to_string(rep) + " report digest changed");
      ok += match ? 1 : 0;
    }
    const double wall = SecondsBetween(t0, Clock::now());
    const double cpu = ProcessCpuSeconds() - cpu0;
    if (rep == 0) return;
    const double session_s = static_cast<double>(kSessionsPerRep * kSessionSpan.count());
    e2e.setup_s.insert(e2e.setup_s.end(), setups.begin(), setups.end());
    e2e.rate.push_back(session_s / wall);
    e2e.cpu.push_back(cpu / session_s);
    e2e.ok.push_back(static_cast<double>(ok) / static_cast<double>(kSessionsPerRep));
  });
  e2e.Report(out, PeakRssMb());
}

/// Unkilled, checkpoint-free oracle digests for one supervised seed set.
std::vector<SupervisedOp> SupervisedOracle(std::uint64_t base) {
  std::vector<SupervisedOp> oracle;
  for (std::size_t i = 0; i < kSupervisedPerRep; ++i) {
    oracle.push_back(RunSupervised(DeriveSeed(base, i), std::chrono::seconds{0}, false));
  }
  return oracle;
}

void MeasureSupervised(const Args& args, Outcome& out) {
  E2e e2e;
  std::vector<std::vector<SupervisedOp>> reps;
  Repeat(args.seconds, 3, [&](int rep) {
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<SupervisedOp> ops;
    for (std::size_t i = 0; i < kSupervisedPerRep; ++i) {
      ops.push_back(RunSupervised(DeriveSeed(args.seed, i), kCheckpointEvery, true));
    }
    const double wall = SecondsBetween(t0, Clock::now());
    const double cpu = ProcessCpuSeconds() - cpu0;
    if (rep > 0) {
      const double session_s = static_cast<double>(kSupervisedPerRep * kSessionSpan.count());
      for (const SupervisedOp& op : ops) e2e.setup_s.push_back(op.setup_s);
      e2e.rate.push_back(session_s / wall);
      e2e.cpu.push_back(cpu / session_s);
    }
    reps.push_back(std::move(ops));
  });
  const double rss = PeakRssMb();

  // Every killed-and-restored run must land on its unkilled oracle.
  const std::vector<SupervisedOp> oracle = SupervisedOracle(args.seed);
  for (std::size_t r = 0; r < reps.size(); ++r) {
    std::size_t ok = 0;
    for (std::size_t i = 0; i < kSupervisedPerRep; ++i) {
      const SupervisedOp& op = reps[r][i];
      const bool match = op.completed && op.restarts >= 1 &&
                         op.final_digest == oracle[i].final_digest &&
                         op.report_digest == oracle[i].report_digest;
      out.Check(match, "session_supervised session " + std::to_string(i) + " rep " +
                           std::to_string(r) + " did not recover the unkilled digests");
      ok += match ? 1 : 0;
    }
    if (r > 0) e2e.ok.push_back(static_cast<double>(ok) / kSupervisedPerRep);
  }
  e2e.Report(out, rss);
}

void MeasureFleet(const Args& args, Outcome& out) {
  E2e e2e;
  std::vector<FleetOp> ops;
  Repeat(args.seconds, 3, [&](int rep) {
    const double cpu0 = ProcessCpuSeconds();
    FleetOp op = RunFleetSweep(args.seed, Producers(), true);
    const double cpu = ProcessCpuSeconds() - cpu0;
    if (rep > 0) {
      const double session_s = static_cast<double>(kFleetSessions * kFleetSpan.count());
      e2e.setup_s.push_back(op.setup_s);
      e2e.rate.push_back(session_s / op.wall_s);
      e2e.cpu.push_back(cpu / session_s);
    }
    ops.push_back(std::move(op));
  });
  const double rss = PeakRssMb();

  // FleetReport bytes must not depend on the producer count or on the
  // pipeline: one-thread and min(4, nproc)-thread oracles, no pipeline.
  const std::uint64_t oracle = RunFleetSweep(args.seed, 1, false).report_digest;
  const std::uint64_t wide = RunFleetSweep(args.seed, Layout(), false).report_digest;
  out.Check(wide == oracle, "fleet_sweep report at " + std::to_string(Layout()) +
                                " jobs differs from the 1-job oracle");
  for (std::size_t r = 0; r < ops.size(); ++r) {
    const FleetOp& op = ops[r];
    const bool match = op.report_digest == oracle;
    out.Check(match, "fleet_sweep rep " + std::to_string(r) + " FleetReport " +
                         Hex(op.report_digest) + " != oracle " + Hex(oracle));
    // A telemetry event offered to the rings and shed is a failed
    // operation; a wrong report fails every event of the sweep.
    if (r > 0) e2e.ok.push_back(match ? 1.0 - FailFrac(op.rings) : 0.0);
  }
  e2e.Report(out, rss);
}

/// What a world run is checked by: its digest, its FleetReport bytes and
/// the conservation ledger.
struct WorldCheck {
  std::uint64_t digest = 0;
  std::uint64_t fleet = 0;
  bool conserved = false;
};

WorldCheck CheckOf(const athena::world::WorldResult& r) {
  return {r.digest, Fnv1a(r.fleet_json), r.conservation_ok};
}

bool CheckWorld(Outcome& out, const WorldCheck& got, const WorldCheck& want,
                const std::string& what) {
  const bool ok = got.conserved && got.digest == want.digest && got.fleet == want.fleet;
  out.Check(ok, what + ": digest " + Hex(got.digest) + " fleet " + Hex(got.fleet) +
                    (got.conserved ? "" : " conservation violated") + ", expected " +
                    Hex(want.digest) + " fleet " + Hex(want.fleet));
  return ok;
}

constexpr WorldCheck kPinnedWorld{kPinnedWorldDigest, kPinnedWorldFleet, true};

// The end-to-end world runs its shards in the engine's sequential mode:
// threaded, every window ends in a barrier whose wake-ups wait on the
// host scheduler, and on a shared 4-vCPU host that swung run medians
// five-fold between minutes. The threaded run is measured in the traced
// tour (world.parallel_eff, world.barrier_wait_s, ...) and checked here.
void MeasureWorld(const Args& args, Outcome& out) {
  E2e e2e;
  std::vector<WorldCheck> checks;
  const athena::world::WorldConfig config = WorldConfigFor(args.seed, Layout(), false);
  Repeat(args.seconds, 3, [&](int rep) {
    const double cpu0 = ProcessCpuSeconds();
    const WorldOp op = RunWorld(config);
    const double cpu = ProcessCpuSeconds() - cpu0;
    if (rep > 0) {
      const double ue_s = static_cast<double>(kWorldUes * kWorldSpan.count());
      e2e.setup_s.push_back(op.setup_s);
      e2e.rate.push_back(ue_s / op.wall_s);
      e2e.cpu.push_back(cpu / ue_s);
    }
    checks.push_back(CheckOf(op.result));
  });
  const double rss = PeakRssMb();

  // The digest and FleetReport must not depend on the shard layout: hold
  // every sharded run against a 1-shard sequential oracle.
  const WorldCheck oracle = CheckOf(RunWorld(WorldConfigFor(args.seed, 1, false)).result);
  out.Check(oracle.conserved, "world_sharded oracle conservation violated");
  CheckWorld(out, CheckOf(RunWorld(WorldConfigFor(args.seed, Layout(), true)).result), oracle,
             "world_sharded threaded run");
  for (std::size_t r = 0; r < checks.size(); ++r) {
    const bool ok = CheckWorld(out, checks[r], oracle, "world_sharded rep " + std::to_string(r));
    if (r > 0) e2e.ok.push_back(ok ? 1.0 : 0.0);
  }
  e2e.Report(out, rss);
}

/// Every run, traced or not, also reproduces the canonical seed's pinned
/// digests for its workload (at one thread / one shard).
void CheckPinned(const std::string& workload, Outcome& out) {
  if (workload == "session_5g") {
    const std::vector<std::uint64_t> got = SessionDigests(kCanonicalSeed);
    for (std::size_t i = 0; i < kSessionsPerRep; ++i) {
      out.Check(got[i] == kPinnedSessionReports[i],
                "session_5g canonical session " + std::to_string(i) + " report " +
                    Hex(got[i]) + " != pinned " + Hex(kPinnedSessionReports[i]));
    }
  } else if (workload == "session_supervised") {
    const std::vector<SupervisedOp> got = SupervisedOracle(kCanonicalSeed);
    for (std::size_t i = 0; i < kSupervisedPerRep; ++i) {
      out.Check(got[i].completed && got[i].final_digest == kPinnedSupervised[i].final_digest &&
                    got[i].report_digest == kPinnedSupervised[i].report_digest,
                "session_supervised canonical session " + std::to_string(i) + " digests " +
                    Hex(got[i].final_digest) + "/" + Hex(got[i].report_digest) +
                    " != pinned");
    }
  } else if (workload == "fleet_sweep") {
    const std::uint64_t got = RunFleetSweep(kCanonicalSeed, 1, false).report_digest;
    out.Check(got == kPinnedFleetReport, "fleet_sweep canonical FleetReport " + Hex(got) +
                                             " != pinned " + Hex(kPinnedFleetReport));
  } else {
    const WorldOp op = RunWorld(WorldConfigFor(kCanonicalSeed, 1, false));
    CheckWorld(out, CheckOf(op.result), kPinnedWorld, "world_sharded canonical");
  }
}

// --- traced tour --------------------------------------------------------

/// Per-layer samples gathered over the tours; counts come from the first
/// tour (they must repeat exactly), times are medians over all tours.
struct Tour {
  std::map<std::string, std::vector<double>> times;
  std::map<std::string, double> counts;
  std::map<std::string, std::string> units;

  void Time(const std::string& name, double v, const std::string& unit = "s") {
    times[name].push_back(v);
    units[name] = unit;
  }
  void Count(const std::string& name, double v, bool first, const std::string& unit = "count") {
    if (first) counts[name] += v;
    units[name] = unit;
  }
};

void TourSessions(const Args& args, bool first, Tour& tour, Outcome& out) {
  constexpr std::size_t kTraced = 4;
  std::uint64_t granted = 0;
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < kTraced; ++i) {
    const std::uint64_t seed = DeriveSeed(args.seed, i);
    // Untraced and traced runs of one seed, back to back: the overhead
    // ratio pairs them, and tracing must not change the report.
    const SessionOp plain = RunSession5g(seed, false);
    const SessionOp op = RunSession5g(seed, true);
    out.Check(op.report_digest != 0 && op.report_digest == plain.report_digest,
              "traced session " + std::to_string(i) + " report differs from untraced");
    const SessionLayers& l = op.layers;
    tour.Time("obs.trace_overhead_frac", op.wall_s / plain.wall_s - 1.0, "fraction");
    tour.Time("app.setup_s", op.setup_s);
    tour.Time("app.simulate_s", op.simulate_s);
    tour.Time("core.build_input_s", op.build_input_s);
    tour.Time("core.correlate_s", op.correlate_s);
    tour.Time("core.report_s", op.report_s);
    tour.Time("session_5g.summarize_s", op.summarize_s);
    tour.Time("core.correlate_ns_per_pkt",
              l.packets > 0 ? op.correlate_s * 1e9 / static_cast<double>(l.packets) : 0.0,
              "ns");
    tour.Time("sim.events_per_s",
              l.sim_run_wall_s > 0.0 ? static_cast<double>(l.sim_events) / l.sim_run_wall_s
                                     : 0.0,
              "1/s");
    tour.Time("sim.callback_ns_mean",
              l.sim_callbacks_sampled > 0 ? static_cast<double>(l.sim_callback_ns) /
                                                static_cast<double>(l.sim_callbacks_sampled)
                                          : 0.0,
              "ns");
    tour.Time("app.teardown_s", op.teardown_s);
    tour.Time("session_5g.wall_s", op.wall_s);
    tour.Time("session_5g.unaccounted_s",
              op.wall_s - (op.setup_s + op.simulate_s + op.build_input_s + op.correlate_s +
                           op.summarize_s + op.report_s + op.teardown_s));
    tour.Count("sim.events", static_cast<double>(l.sim_events), first);
    if (first) {
      tour.counts["sim.queue_high_water"] = std::max(
          tour.counts["sim.queue_high_water"], static_cast<double>(l.sim_queue_high_water));
      tour.units["sim.queue_high_water"] = "count";
    }
    tour.Count("net.capture_records", static_cast<double>(l.capture_records), first);
    tour.Count("ran.tbs", static_cast<double>(l.ran_tbs), first);
    tour.Count("ran.harq_retx", static_cast<double>(l.ran_harq_retx), first);
    tour.Count("rtp.retransmissions", static_cast<double>(l.rtp_retransmissions), first);
    tour.Count("cc.feedback_msgs", static_cast<double>(l.cc_feedback_msgs), first);
    tour.Count("media.frames_rendered", static_cast<double>(l.media_frames_rendered), first);
    tour.Count("core.packets", static_cast<double>(l.packets), first);
    for (std::size_t k = 0; k < athena::obs::kLayerCount; ++k) {
      tour.Count(std::string("obs.trace_events.") +
                     athena::obs::ToString(static_cast<athena::obs::Layer>(k)),
                 static_cast<double>(l.trace_events_per_layer[k]), first);
    }
    granted += l.ran_granted_bytes;
    used += l.ran_used_bytes;
  }
  if (first) {
    tour.counts["ran.grant_util"] =
        granted > 0 ? static_cast<double>(used) / static_cast<double>(granted) : 0.0;
    tour.units["ran.grant_util"] = "fraction";
  }
}

void TourSupervised(const Args& args, bool first, Tour& tour, Outcome& out) {
  const std::uint64_t seed = DeriveSeed(args.seed, 0);
  // Same plan at cadence 0 and 5 s (no kill): the difference is the
  // snapshotting cost. The 5 s run also keeps its kill-point snapshot
  // and times a Resume from it.
  const SupervisedOp bare = RunSupervised(seed, std::chrono::seconds{0}, false);
  const SupervisedOp snap = RunSupervised(seed, kCheckpointEvery, false, true);
  const SupervisedOp killed = RunSupervised(seed, kCheckpointEvery, true);
  const auto same = [&](const SupervisedOp& op) {
    return op.completed && op.final_digest == bare.final_digest &&
           op.report_digest == bare.report_digest;
  };
  out.Check(bare.completed, "supervised cadence-0 run did not complete");
  out.Check(same(snap), "supervised checkpointed run or its resume diverged");
  out.Check(same(killed) && killed.restarts >= 1, "supervised killed run did not recover");
  tour.Time("resilience.checkpoint_overhead_s", snap.run_s - bare.run_s);
  tour.Time("resilience.checkpoint_share", (snap.run_s - bare.run_s) / snap.run_s, "fraction");
  tour.Time("resilience.restore_s", snap.restore_s);
  tour.Time("session_supervised.wall_s", killed.wall_s);
  tour.Time("session_supervised.unaccounted_s", killed.wall_s - killed.run_s);
  tour.Count("resilience.checkpoints", static_cast<double>(snap.checkpoints), first);
  tour.Count("resilience.checkpoint_bytes", static_cast<double>(snap.checkpoint_bytes), first,
             "B");
  tour.Count("resilience.restarts", static_cast<double>(killed.restarts), first);
  tour.Count("mitigation.decisions", static_cast<double>(killed.decisions), first);
  tour.Count("mitigation.actuations", static_cast<double>(killed.actuations), first);
  tour.Count("mitigation.reverts", static_cast<double>(killed.reverts), first);
}

void TourFleet(const Args& args, bool first, Tour& tour, Outcome& out,
               std::uint64_t& fleet_digest) {
  const FleetOp op = RunFleetSweep(args.seed, Producers(), true);
  if (first) fleet_digest = op.report_digest;
  out.Check(op.report_digest == fleet_digest, "traced fleet sweep report changed between tours");
  for (const double s : op.summarize_s) tour.Time("obs.fleet.summarize_s", s);
  tour.Time("obs.fleet.report_s", op.report_s);
  tour.Time("runner.parallel_eff", ParallelEfficiency(op.task_s_sum, op.jobs, op.map_s),
            "fraction");
  tour.Time("pipeline.finish_s", op.finish_s);
  tour.Time("pipeline.offered", static_cast<double>(Offered(op.rings)), "count");
  tour.Time("pipeline.ingested", static_cast<double>(op.ingested), "count");
  tour.Time("pipeline.shed_low", static_cast<double>(op.rings.shed_low), "count");
  tour.Time("pipeline.shed_critical", static_cast<double>(op.rings.shed_critical), "count");
  tour.Time("pipeline.ring_high_water", static_cast<double>(op.rings.high_water), "count");
  tour.Time("pipeline.fail_frac", FailFrac(op.rings), "fraction");
  tour.Time("pipeline.athc_bytes_per_event",
            op.ingested > 0 ? static_cast<double>(op.athc_bytes) /
                                  static_cast<double>(op.ingested)
                            : 0.0,
            "B");
  tour.Time("fleet_sweep.wall_s", op.wall_s);
  tour.Time("fleet_sweep.unaccounted_s",
            op.wall_s - (op.setup_s + op.map_s + op.finish_s + op.report_s));
  tour.Count("obs.live.anomalies", static_cast<double>(op.anomalies), first);
}

void TourWorld(const Args& args, bool first, Tour& tour, Outcome& out) {
  const athena::world::WorldConfig config = WorldConfigFor(args.seed, Layout(), true);
  const auto t0 = Clock::now();
  const WorldOp op = RunWorld(config);
  const double outer_s = SecondsBetween(t0, Clock::now());
  const WorldSnapshotOp snap = RunWorldSupervised(config);
  out.Check(op.result.conservation_ok, "traced world conservation violated");
  out.Check(snap.completed && snap.digest == op.result.digest,
            "supervised world digest differs from the plain run");
  const athena::world::WorldResult& r = op.result;
  const WorldSplit split = SplitWorld(r);
  tour.Time("world.setup_s", op.setup_s);
  tour.Time("world.loop_s", op.loop_s);
  tour.Time("world.post_run_s", op.post_run_s);
  tour.Time("world.busy_s", r.busy_seconds);
  tour.Time("world.critical_path_s", r.critical_path_seconds);
  tour.Time("world.barrier_wait_s", split.barrier_wait_s);
  tour.Time("world.imbalance", split.imbalance, "ratio");
  tour.Time("world.parallel_eff", split.parallel_eff, "fraction");
  tour.Time("world.ns_per_event",
            r.events_executed > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.events_executed)
                                  : 0.0,
            "ns");
  tour.Time("world.snapshot_overhead_s", snap.wall_s - op.wall_s);
  tour.Time("world_sharded.wall_s", outer_s);
  tour.Time("world.construct_s", op.construct_s);
  tour.Time("world.teardown_s", op.teardown_s);
  tour.Time("world_sharded.unaccounted_s",
            outer_s - (op.construct_s + op.setup_s + op.loop_s + op.post_run_s + op.teardown_s));
  tour.Count("world.events", static_cast<double>(r.events_executed), first);
  tour.Count("world.mailbox_msgs", static_cast<double>(r.messages_delivered), first);
  tour.Count("world.handovers", static_cast<double>(r.handovers), first);
  tour.Count("world.snapshot_bytes", static_cast<double>(snap.snapshot_bytes), first, "B");
}

void MeasureTraced(const Args& args, Outcome& out) {
  Tour tour;
  std::uint64_t fleet_digest = 0;
  const auto t0 = Clock::now();
  for (int t = 0;; ++t) {
    const bool first = t == 0;
    TourSessions(args, first, tour, out);
    TourSupervised(args, first, tour, out);
    TourFleet(args, first, tour, out, fleet_digest);
    TourWorld(args, first, tour, out);
    if (SecondsBetween(t0, Clock::now()) >= args.seconds) break;
  }
  std::cout << "per-layer (counts from the first tour, times as medians over tours):\n";
  for (const auto& [name, samples] : tour.times) {
    Describe(name, samples, tour.units[name]);
    out.Add(name, Median(samples), tour.units[name]);
  }
  for (const auto& [name, value] : tour.counts) {
    std::cout << "  " << name << ": " << Num(value) << ' ' << tour.units[name] << '\n';
    out.Add(name, value, tour.units[name]);
  }
}

// --- pins ---------------------------------------------------------------

int PrintPins() {
  const std::vector<std::uint64_t> sessions = SessionDigests(kCanonicalSeed);
  std::cout << "kPinnedSessionReports:";
  for (const std::uint64_t d : sessions) std::cout << " 0x" << Hex(d);
  std::cout << "\nkPinnedSupervised:";
  for (const SupervisedOp& op : SupervisedOracle(kCanonicalSeed)) {
    std::cout << " {0x" << Hex(op.final_digest) << ", 0x" << Hex(op.report_digest) << "}";
  }
  std::cout << "\nkPinnedFleetReport: 0x"
            << Hex(RunFleetSweep(kCanonicalSeed, 1, false).report_digest)
            << " (at " << Layout() << " jobs: 0x"
            << Hex(RunFleetSweep(kCanonicalSeed, Layout(), false).report_digest) << ")\n";
  for (const std::size_t shards : {std::size_t{1}, std::size_t{Layout()}}) {
    const WorldOp op = RunWorld(WorldConfigFor(kCanonicalSeed, shards, shards > 1));
    std::cout << "world at " << shards << " shard(s): kPinnedWorldDigest 0x"
              << Hex(op.result.digest) << " kPinnedWorldFleet 0x"
              << Hex(Fnv1a(op.result.fleet_json)) << " conservation "
              << (op.result.conservation_ok ? "ok" : "VIOLATED") << '\n';
  }
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.print_pins) return PrintPins();

  const std::map<std::string, unsigned> threads{
      {"session_5g", 1},
      {"session_supervised", 2},  // run thread + watchdog monitor
      {"fleet_sweep", Producers() + 1},
      {"world_sharded", 1},  // sequential shards; see MeasureWorld
  };
  const auto it = threads.find(args.workload);
  if (it == threads.end()) Usage("unknown workload " + args.workload);

  std::cout << "stamp: {\"git_rev\": \"" << args.git_rev << "\", \"src_digest\": \""
            << args.src_digest << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"nproc\": " << Nproc()
            << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
            << ", \"workload\": \"" << args.workload << "\", \"threads\": "
            << (args.trace ? Layout() : it->second) << ", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
            << "}\n";

  Outcome out;
  if (args.trace) {
    MeasureTraced(args, out);
  } else if (args.workload == "session_5g") {
    MeasureSession5g(args, out);
  } else if (args.workload == "session_supervised") {
    MeasureSupervised(args, out);
  } else if (args.workload == "fleet_sweep") {
    MeasureFleet(args, out);
  } else {
    MeasureWorld(args, out);
  }
  CheckPinned(args.workload, out);

  for (std::size_t i = 0; i < out.errors.size() && i < 20; ++i) {
    std::cout << "MISMATCH: " << out.errors[i] << '\n';
  }
  const bool correct = out.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << Num(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "athena_perfbench: " << e.what() << '\n';
    return 1;
  }
}
