// athena_cli — scenario runner with CSV export.
//
// Run any session configuration from the command line and dump the full
// cross-layer dataset for offline analysis (pandas/R/gnuplot):
//
//   athena_cli [options]
//     --access=5g|emulated|wifi|leo     access network      (default 5g)
//     --controller=gcc|nada|scream|l4s  congestion control  (default gcc)
//     --duration=SECONDS                call length         (default 60)
//     --seed=N                          RNG seed            (default 42)
//     --cross-mbps=X                    cross-traffic load  (default 0)
//     --fading                          enable the fading radio
//     --out=DIR                         write packets/frames/telemetry/
//                                       capture CSVs into DIR
//     --trace=FILE                      write a Chrome trace-event JSON
//                                       (open in Perfetto / chrome://tracing)
//     --metrics=FILE                    write periodic metric snapshots as CSV
//     --diagnose                        run the live anomaly detectors and
//                                       print the ranked health report (with
//                                       --mitigate: also the decision ledger —
//                                       trigger, attribution, knob delta,
//                                       outcome per decision)
//     --mitigate                        close the loop: a MitigationController
//                                       subscribes to the live detectors and
//                                       actuates the grant/CC/pacing knobs
//                                       under fail-safe guardrails. With
//                                       --chaos: runs the session scenarios
//                                       as mitigation-on/off pairs and checks
//                                       the QoE + guardrail contracts instead
//                                       of the plain degradation contract
//     --mitigate-budget-ms=N            hard sense-to-act budget, virtual
//                                       time (default 50)
//     --expose=FILE                     write metrics + live detector state in
//                                       Prometheus text format
//     --anomalies=FILE                  write the structured event log as JSONL
//     --sweep=N                         run N sessions with per-run seeds
//                                       derived from --seed (run i gets
//                                       sim::DeriveSeed(seed, i)); file
//                                       outputs gain a .runN suffix
//     --jobs=J                          worker threads for --sweep/--chaos
//                                       (default: hardware concurrency).
//                                       Output is bit-identical for any J.
//     --chaos=NAME[,NAME...]|all        chaos mode: run the named fault
//                                       scenario(s) (or the whole catalog) under
//                                       --chaos-seeds derived seeds and check
//                                       each scenario's contract; exits
//                                       nonzero on any violation. World
//                                       scenarios (world_*) take their layout
//                                       from --world-ues/--world-cells/
//                                       --world-shards/--world-mode/
//                                       --world-handover/--duration when
//                                       --world-ues is set
//     --chaos-seeds=N                   seeds per chaos scenario (default 4)
//     --chaos-out=FILE                  write the chaos matrix as JSON
//     --chaos-list                      list the built-in chaos scenarios
//     --ingest-out=FILE                 stream trace events through the
//                                       telemetry ingest pipeline into a
//                                       compact ATHC columnar file
//     --rollup-bucket=MS                rollup bucket width (default 100);
//                                       activates the pipeline rollup
//     --rollup-out=FILE                 write the time-bucketed rollup as JSON
//     --export-shards=N                 write the fleet exposition as N
//                                       sharded Prometheus files (requires
//                                       --expose as the base path)
//     --perfetto-out=FILE               convert the finished --ingest-out
//                                       columnar stream to Chrome trace JSON
//                                       (chunked: O(block) memory)
//     --checkpoint-every=MS             snapshot the session every MS of
//                                       virtual time (resilient mode)
//     --checkpoint-out=FILE             spill the latest checkpoint to FILE
//                                       (sessions and worlds share one
//                                       ATHCKPT format)
//     --restore=FILE                    resume from a checkpoint file; the
//                                       replayed state is digest-verified
//                                       before the run continues (in world
//                                       mode: at the snapshot's window,
//                                       mailbox witness included)
//     --mem-budget=BYTES                overload governor: bound the
//                                       correlator input, shedding
//                                       lowest-priority records first
//     --supervise                       run under the watchdog supervisor
//                                       (stall detection + bounded
//                                       restart-from-checkpoint)
//     --kill-at=MS                      inject a crash at virtual time MS
//                                       (exercises the restore path)
//     --kill-every-events=N             inject a crash every N events
//     --fleet-report=FILE               aggregate every run of this
//                                       invocation (single, --sweep or
//                                       --chaos) into a fleet report:
//                                       population delay-decomposition CDFs,
//                                       anomaly prevalence and the SLO
//                                       scoreboard as deterministic JSON
//                                       (byte-identical at any --jobs)
//     --fleet-slo=FILE                  SLO spec file (one per line:
//                                       "name: sample metric <= T @ 0.95
//                                       window 64"); default = built-ins
//     --fleet-expose=FILE               write the fleet.slo.* and
//                                       fleet.prevalence.* gauges in
//                                       Prometheus text format
//     --world-ues=N                     world mode: run N concurrent
//                                       sessions sharing --world-cells
//                                       cells across --world-shards
//                                       shard workers (sharded engine,
//                                       src/world/); prints the world
//                                       digest + population summary and
//                                       honours --fleet-report
//     --world-cells=C                   cells in the world  (default 4)
//     --world-shards=S                  shards (clamped to C, default 1)
//     --world-handover=K                every K-th UE hands over mid-run
//     --world-mode=threads|seq          one worker per shard vs the
//                                       sequential oracle (default threads)
//     --world-crosscheck                after the run, repeat at 1 shard
//                                       sequentially and require a
//                                       byte-identical digest + report
//     --world-checkpoint-every=K        snapshot the whole world every K
//                                       window boundaries (default 64 in
//                                       supervised mode)
//     --world-kill-shard=S              supervised mode: shard S's worker
//                                       dies once; the supervisor restores
//                                       from the latest snapshot and the
//                                       recovered digest must equal an
//                                       uninterrupted run's
//     --world-kill-window=W             1-based window of the kill
//                                       (default: derived from --seed)
//     --world-kill-cell=C               blame the kills on cell C and keep
//                                       killing until its restart budget
//                                       (1) is exhausted — the supervisor
//                                       quarantines the cell and evacuates
//                                       its UEs
//     --fleet-baseline=FILE             stored baseline report to gate
//                                       against
//     --fleet-gate                      with --chaos/--sweep: after the run,
//                                       compare the fleet report against
//                                       --fleet-baseline (CDF dominance +
//                                       SLO compliance) and exit nonzero on
//                                       regression. Without a run mode:
//                                       gate --fleet-report (an existing
//                                       file) against the baseline directly
//
// Example:
//   athena_cli --access=5g --fading --cross-mbps=16 --duration=120
//       --out=/tmp/athena_run --trace=/tmp/athena_run/trace.json --diagnose
//
// CI regression gate:
//   athena_cli --chaos=all --chaos-seeds=2 --jobs=2
//       --fleet-report=fleet.json --fleet-baseline=tests/data/fleet_baseline.json
//       --fleet-gate
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <algorithm>

#include "athena.hpp"
#include "core/report.hpp"
#include "fault/chaos.hpp"
#include "mitigation/control/runtime.hpp"
#include "obs/fleet/report.hpp"
#include "obs/live/health.hpp"
#include "obs/pipeline/export.hpp"
#include "obs/pipeline/pipeline.hpp"
#include "obs/prom_text.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/supervisor.hpp"
#include "resilience/world_checkpoint.hpp"
#include "resilience/world_supervisor.hpp"
#include "sim/runner.hpp"
#include "world/engine.hpp"

namespace {

using namespace athena;

struct Options {
  std::string access = "5g";
  std::string controller = "gcc";
  int duration_s = 60;
  std::uint64_t seed = 42;
  double cross_mbps = 0.0;
  bool fading = false;
  std::string out_dir;
  std::string trace_path;
  std::string metrics_path;
  bool diagnose = false;
  bool mitigate = false;       ///< closed-loop mitigation control plane
  int mitigate_budget_ms = 50; ///< sense-to-act budget (virtual ms)
  std::string expose_path;
  std::string anomalies_path;
  int sweep = 0;       ///< 0 = single run; N>0 = N derived-seed runs
  unsigned jobs = 0;   ///< 0 = hardware concurrency
  std::string chaos;   ///< scenario name or "all"; empty = normal mode
  std::size_t chaos_seeds = 4;
  std::string chaos_out;
  bool chaos_list = false;

  // --- telemetry ingest pipeline (src/obs/pipeline/) ---
  std::string ingest_out;      ///< ATHC columnar stream destination
  int rollup_bucket_ms = 0;    ///< 0 = default width; >0 activates rollup out
  std::string rollup_out;      ///< rollup JSON destination
  unsigned export_shards = 0;  ///< 0 = no sharded exposition
  std::string perfetto_out;    ///< chunked columnar→Chrome-JSON conversion

  [[nodiscard]] bool pipeline() const {
    return !ingest_out.empty() || rollup_bucket_ms > 0 || !rollup_out.empty() ||
           export_shards > 0 || !perfetto_out.empty();
  }

  // --- resilient mode (src/resilience/) ---
  int checkpoint_every_ms = 0;          ///< 0 = no periodic snapshots
  std::string checkpoint_out;           ///< latest-checkpoint spill file
  std::string restore_path;             ///< resume from this checkpoint
  std::size_t mem_budget = 0;           ///< input byte budget (0 = unbounded)
  bool supervise = false;
  int kill_at_ms = 0;                   ///< injected crash (virtual ms)
  std::uint64_t kill_every_events = 0;  ///< injected crash cadence

  [[nodiscard]] bool resilient() const {
    return checkpoint_every_ms > 0 || !checkpoint_out.empty() ||
           !restore_path.empty() || mem_budget > 0 || supervise ||
           kill_at_ms > 0 || kill_every_events > 0;
  }

  // --- fleet observability (src/obs/fleet/) ---
  std::string fleet_report;    ///< report JSON destination
  std::string fleet_slo;       ///< SLO spec file (empty = built-in catalog)
  std::string fleet_expose;    ///< fleet gauges, Prometheus text format
  std::string fleet_baseline;  ///< stored baseline for the gate
  bool fleet_gate = false;

  [[nodiscard]] bool fleet() const {
    return !fleet_report.empty() || !fleet_expose.empty() || fleet_gate;
  }

  // --- world mode (src/world/) ---
  std::size_t world_ues = 0;  ///< >0 activates the sharded world engine
  std::size_t world_cells = 4;
  std::size_t world_shards = 1;
  std::size_t world_handover_every = 0;
  std::string world_mode = "threads";  ///< threads | seq
  bool world_crosscheck = false;

  // --- world resilience (src/resilience/world_*) ---
  std::uint64_t world_checkpoint_every = 64;  ///< snapshot cadence (windows)
  std::size_t world_kill_shard = world::WorldConfig::kNoCrash;
  std::uint64_t world_kill_window = 0;  ///< 0 = derived from the seed
  std::size_t world_kill_cell = world::WorldConfig::kNoCrash;  ///< blame cell

  [[nodiscard]] bool world() const { return world_ues > 0; }
  [[nodiscard]] bool world_supervised() const {
    return world_kill_shard != world::WorldConfig::kNoCrash ||
           !restore_path.empty() || !checkpoint_out.empty();
  }
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "access", &value)) {
      opt.access = value;
    } else if (ParseFlag(arg, "controller", &value)) {
      opt.controller = value;
    } else if (ParseFlag(arg, "duration", &value)) {
      opt.duration_s = std::stoi(value);
    } else if (ParseFlag(arg, "seed", &value)) {
      opt.seed = std::stoull(value);
    } else if (ParseFlag(arg, "cross-mbps", &value)) {
      opt.cross_mbps = std::stod(value);
    } else if (ParseFlag(arg, "out", &value)) {
      opt.out_dir = value;
    } else if (ParseFlag(arg, "trace", &value)) {
      opt.trace_path = value;
    } else if (ParseFlag(arg, "metrics", &value)) {
      opt.metrics_path = value;
    } else if (ParseFlag(arg, "expose", &value)) {
      opt.expose_path = value;
    } else if (ParseFlag(arg, "anomalies", &value)) {
      opt.anomalies_path = value;
    } else if (ParseFlag(arg, "sweep", &value)) {
      opt.sweep = std::stoi(value);
    } else if (ParseFlag(arg, "jobs", &value)) {
      opt.jobs = static_cast<unsigned>(std::stoul(value));
    } else if (ParseFlag(arg, "chaos", &value)) {
      opt.chaos = value;
    } else if (ParseFlag(arg, "chaos-seeds", &value)) {
      opt.chaos_seeds = std::stoul(value);
    } else if (ParseFlag(arg, "chaos-out", &value)) {
      opt.chaos_out = value;
    } else if (arg == "--chaos-list") {
      opt.chaos_list = true;
    } else if (ParseFlag(arg, "ingest-out", &value)) {
      opt.ingest_out = value;
    } else if (ParseFlag(arg, "rollup-bucket", &value)) {
      opt.rollup_bucket_ms = std::stoi(value);
    } else if (ParseFlag(arg, "rollup-out", &value)) {
      opt.rollup_out = value;
    } else if (ParseFlag(arg, "export-shards", &value)) {
      opt.export_shards = static_cast<unsigned>(std::stoul(value));
    } else if (ParseFlag(arg, "perfetto-out", &value)) {
      opt.perfetto_out = value;
    } else if (ParseFlag(arg, "checkpoint-every", &value)) {
      opt.checkpoint_every_ms = std::stoi(value);
    } else if (ParseFlag(arg, "checkpoint-out", &value)) {
      opt.checkpoint_out = value;
    } else if (ParseFlag(arg, "restore", &value)) {
      opt.restore_path = value;
    } else if (ParseFlag(arg, "mem-budget", &value)) {
      opt.mem_budget = std::stoul(value);
    } else if (ParseFlag(arg, "kill-at", &value)) {
      opt.kill_at_ms = std::stoi(value);
    } else if (ParseFlag(arg, "kill-every-events", &value)) {
      opt.kill_every_events = std::stoull(value);
    } else if (ParseFlag(arg, "fleet-report", &value)) {
      opt.fleet_report = value;
    } else if (ParseFlag(arg, "fleet-slo", &value)) {
      opt.fleet_slo = value;
    } else if (ParseFlag(arg, "fleet-expose", &value)) {
      opt.fleet_expose = value;
    } else if (ParseFlag(arg, "fleet-baseline", &value)) {
      opt.fleet_baseline = value;
    } else if (ParseFlag(arg, "world-ues", &value)) {
      opt.world_ues = std::stoul(value);
    } else if (ParseFlag(arg, "world-cells", &value)) {
      opt.world_cells = std::stoul(value);
    } else if (ParseFlag(arg, "world-shards", &value)) {
      opt.world_shards = std::stoul(value);
    } else if (ParseFlag(arg, "world-handover", &value)) {
      opt.world_handover_every = std::stoul(value);
    } else if (ParseFlag(arg, "world-mode", &value)) {
      opt.world_mode = value;
    } else if (arg == "--world-crosscheck") {
      opt.world_crosscheck = true;
    } else if (ParseFlag(arg, "world-checkpoint-every", &value)) {
      opt.world_checkpoint_every = std::stoull(value);
    } else if (ParseFlag(arg, "world-kill-shard", &value)) {
      opt.world_kill_shard = std::stoul(value);
    } else if (ParseFlag(arg, "world-kill-window", &value)) {
      opt.world_kill_window = std::stoull(value);
    } else if (ParseFlag(arg, "world-kill-cell", &value)) {
      opt.world_kill_cell = std::stoul(value);
    } else if (arg == "--fleet-gate") {
      opt.fleet_gate = true;
    } else if (arg == "--supervise") {
      opt.supervise = true;
    } else if (arg == "--diagnose") {
      opt.diagnose = true;
    } else if (arg == "--mitigate") {
      opt.mitigate = true;
    } else if (ParseFlag(arg, "mitigate-budget-ms", &value)) {
      opt.mitigate_budget_ms = std::stoi(value);
    } else if (arg == "--fading") {
      opt.fading = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: athena_cli [--access=5g|emulated|wifi|leo] "
                   "[--controller=gcc|nada|scream|l4s] [--duration=S] [--seed=N] "
                   "[--cross-mbps=X] [--fading] [--out=DIR] [--trace=FILE] "
                   "[--metrics=FILE] [--diagnose] [--mitigate] "
                   "[--mitigate-budget-ms=N] [--expose=FILE] "
                   "[--anomalies=FILE] [--sweep=N] [--jobs=J] "
                   "[--chaos=NAME|all] [--chaos-seeds=N] [--chaos-out=FILE] "
                   "[--chaos-list] [--ingest-out=FILE] [--rollup-bucket=MS] "
                   "[--rollup-out=FILE] [--export-shards=N] [--perfetto-out=FILE] "
                   "[--checkpoint-every=MS] [--checkpoint-out=FILE] "
                   "[--restore=FILE] [--mem-budget=BYTES] [--supervise] "
                   "[--kill-at=MS] [--kill-every-events=N] "
                   "[--fleet-report=FILE] [--fleet-slo=FILE] "
                   "[--fleet-expose=FILE] [--fleet-baseline=FILE] [--fleet-gate] "
                   "[--world-ues=N] [--world-cells=C] [--world-shards=S] "
                   "[--world-handover=K] [--world-mode=threads|seq] "
                   "[--world-crosscheck] "
                   "[--world-checkpoint-every=K] "
                   "[--world-kill-shard=S] [--world-kill-window=W] "
                   "[--world-kill-cell=C]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << " (try --help)\n";
      std::exit(2);
    }
  }
  return opt;
}

app::SessionConfig BuildConfig(const Options& opt, std::uint64_t seed) {
  app::SessionConfig config;
  config.seed = seed;
  if (opt.access == "emulated") {
    config.access = app::SessionConfig::Access::kEmulated;
  } else if (opt.access == "wifi") {
    config.access = app::SessionConfig::Access::kWifiLike;
  } else if (opt.access == "leo") {
    config.access = app::SessionConfig::Access::kLeoSat;
  } else if (opt.access != "5g") {
    std::cerr << "unknown access network: " << opt.access << '\n';
    std::exit(2);
  }
  if (opt.controller == "nada") {
    config.controller = app::SessionConfig::Controller::kNada;
  } else if (opt.controller == "scream") {
    config.controller = app::SessionConfig::Controller::kScream;
  } else if (opt.controller == "l4s") {
    config.controller = app::SessionConfig::Controller::kL4s;
  } else if (opt.controller != "gcc") {
    std::cerr << "unknown controller: " << opt.controller << '\n';
    std::exit(2);
  }
  if (opt.fading) config.channel = ran::ChannelModel::FadingRadio();
  if (opt.cross_mbps > 0.0) {
    config.cross_traffic = net::CapacityTrace{opt.cross_mbps * 1e6};
    config.cross_burstiness = 0.35;
    config.cross_modulation_sigma = 0.5;
    config.cell.cell_ul_capacity_bps = 25e6;
  }
  return config;
}

std::vector<obs::fleet::SloSpec> LoadSlos(const Options& opt) {
  if (opt.fleet_slo.empty()) return obs::fleet::DefaultSlos();
  std::ifstream in{opt.fleet_slo};
  if (!in) throw std::runtime_error("cannot read " + opt.fleet_slo);
  return obs::fleet::ParseSloSpecs(in);
}

/// Runs the gate of `report` against the stored baseline. Returns the
/// process exit code (nonzero on regression).
int GateReport(const Options& opt, const obs::fleet::FleetReport& report) {
  std::ifstream in{opt.fleet_baseline};
  if (!in) throw std::runtime_error("cannot read " + opt.fleet_baseline);
  const obs::fleet::FleetReport baseline = obs::fleet::ParseReport(in);
  obs::fleet::GateOptions gate_options;
  // Under --mitigate the baseline is the un-mitigated population:
  // actuations change what the detectors see, so detection-rate deltas
  // are expected and only the QoE/delay + SLO axes are the contract.
  gate_options.compare_prevalence = !opt.mitigate;
  const obs::fleet::GateResult gate =
      obs::fleet::GateAgainstBaseline(report, baseline, gate_options);
  for (const std::string& failure : gate.failures) {
    std::cout << "fleet gate: " << failure << '\n';
  }
  std::cout << "fleet gate vs " << opt.fleet_baseline << ": "
            << (gate.ok ? "PASS" : "FAIL") << " (" << report.sessions
            << " sessions, " << gate.failures.size() << " regression(s)"
            << (gate_options.compare_prevalence ? "" : ", prevalence axis skipped")
            << ")\n";
  return gate.ok ? 0 : 1;
}

/// Fleet outputs for one invocation's aggregated summaries: the report
/// JSON, the fleet.slo.* / fleet.prevalence.* exposition, and the gate.
/// Returns the process exit code.
int FinishFleet(const Options& opt, const obs::fleet::FleetAggregator& aggregator,
                const obs::fleet::SloEngine& engine) {
  const obs::fleet::FleetReport report = obs::fleet::BuildReport(aggregator, engine);

  if (!opt.fleet_report.empty()) {
    std::ofstream os{opt.fleet_report};
    if (!os) throw std::runtime_error("cannot write " + opt.fleet_report);
    obs::fleet::WriteJson(report, os);
    std::cout << "wrote " << opt.fleet_report << " (" << report.sessions
              << " sessions)\n";
  }

  if (!opt.fleet_expose.empty()) {
    // Publish into a scoped registry and render through the one
    // exposition writer every other metric family uses.
    obs::MetricsRegistry registry;
    {
      obs::ScopedMetrics scope{&registry};
      engine.PublishMetrics();
      obs::fleet::PublishPrevalenceMetrics(aggregator.fleet());
    }
    std::ofstream os{opt.fleet_expose};
    if (!os) throw std::runtime_error("cannot write " + opt.fleet_expose);
    obs::prom::WritePrometheus(os, registry);
    std::cout << "wrote " << opt.fleet_expose << '\n';
  }

  if (opt.fleet_gate) {
    if (opt.fleet_baseline.empty()) {
      std::cerr << "--fleet-gate needs --fleet-baseline=FILE\n";
      return 2;
    }
    return GateReport(opt, report);
  }
  return 0;
}

/// Inserts `tag` before the path's extension: ("m.prom", ".shard0") ->
/// "m.shard0.prom"; suffix-less paths just append.
std::string TagPath(const std::string& path, const std::string& tag) {
  const auto dot = path.find_last_of('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

/// "trace.json" + run 3 -> "trace.run3.json".
std::string RunPath(const std::string& path, std::size_t run_index, bool sweep) {
  if (!sweep) return path;
  return TagPath(path, ".run" + std::to_string(run_index));
}

/// One run's console output plus (when fleet mode is on) its fleet digest.
struct RunResult {
  std::string text;
  obs::fleet::SessionSummary summary;
};

/// One complete session: build, run, export, report. All console output
/// goes to the returned string so sweep runs can execute concurrently and
/// still print in index order. Thread-safe because the obs globals are
/// thread_local and everything else here is per-call state.
RunResult RunOne(const Options& opt, std::uint64_t seed, std::size_t run_index,
                 bool sweep) {
  std::ostringstream out;
  sim::Simulator simulator;

  // Observability: installed before the session is built so constructor-time
  // events are captured too. The correlator runs inside the session scope so
  // its core/pkt.uplink track lands in the same trace. When the telemetry
  // pipeline is active, this worker thread's ring shard (bound by the
  // ParallelRunner hooks, or by main for a single run) joins the fanout.
  // Closed-loop mitigation: the runtime's sink joins the trace fanout so
  // its private LiveEngine sees the same event stream as the diagnostics.
  std::unique_ptr<mitigation::control::MitigationRuntime> runtime;
  if (opt.mitigate) {
    mitigation::control::MitigationRuntime::Options mopt;
    mopt.controller.budget =
        sim::Duration{std::chrono::milliseconds{std::max(1, opt.mitigate_budget_ms)}};
    runtime = std::make_unique<mitigation::control::MitigationRuntime>(mopt);
  }

  const bool live = opt.diagnose || !opt.expose_path.empty() ||
                    !opt.anomalies_path.empty() || opt.fleet();
  obs::TraceSink* ring_sink = obs::pipeline::TelemetryPipeline::CurrentThreadSink();
  obs::TraceFanout extra_fanout;
  if (ring_sink != nullptr) extra_fanout.Add(ring_sink);
  if (runtime) extra_fanout.Add(runtime->sink());
  std::unique_ptr<obs::ObsSession> observability;
  if (!opt.trace_path.empty() || !opt.metrics_path.empty() || live ||
      extra_fanout.size() > 0) {
    obs::ObsSession::Options obs_options;
    obs_options.trace = !opt.trace_path.empty();
    obs_options.metrics = true;
    obs_options.metrics_period = opt.metrics_path.empty()
                                     ? sim::Duration{0}
                                     : sim::Duration{std::chrono::milliseconds{100}};
    obs_options.live = live;
    obs_options.extra_sink = extra_fanout.size() > 0 ? &extra_fanout : nullptr;
    observability = std::make_unique<obs::ObsSession>(simulator, obs_options);
  }

  app::SessionConfig config = BuildConfig(opt, seed);
  if (runtime) runtime->InstallConfigHooks(config);
  app::Session session{simulator, config};
  if (runtime) runtime->BindSession(simulator, session);
  out << "running " << opt.duration_s << " s over " << opt.access << " with "
      << opt.controller << " (seed " << seed << ")"
      << (runtime ? " [mitigation on]" : "") << "...\n";
  session.Run(std::chrono::seconds{opt.duration_s});

  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());

  auto write = [&](const std::string& path, auto&& writer) {
    std::ofstream os{path};
    if (!os) throw std::runtime_error("cannot write " + path);
    writer(os);
    out << "wrote " << path << '\n';
  };

  if (observability) {
    if (!opt.trace_path.empty()) {
      write(RunPath(opt.trace_path, run_index, sweep),
            [&](std::ostream& os) { observability->recorder().WriteJson(os); });
    }
    if (!opt.metrics_path.empty()) {
      write(RunPath(opt.metrics_path, run_index, sweep),
            [&](std::ostream& os) { observability->registry().WriteCsv(os); });
    }
    if (!opt.expose_path.empty()) {
      write(RunPath(opt.expose_path, run_index, sweep), [&](std::ostream& os) {
        obs::prom::WritePrometheus(os, observability->registry(), nullptr,
                                   observability->live());
      });
    }
    if (!opt.anomalies_path.empty() && observability->live() != nullptr) {
      write(RunPath(opt.anomalies_path, run_index, sweep),
            [&](std::ostream& os) { observability->live()->log().WriteJsonl(os); });
    }
    if (opt.diagnose && observability->live() != nullptr) {
      obs::live::HealthReport::Build(*observability->live()).Render(out);
    }
  }

  if (runtime) {
    if (opt.diagnose) {
      runtime->RenderLedger(out);
    } else if (const auto* c = runtime->controller()) {
      out << "mitigation: decisions=" << c->ledger().size()
          << " actuations=" << c->actuations() << " reverts=" << c->reverts()
          << " guardrail_blocks=" << c->guardrail_blocks()
          << " max_sense_to_act_us=" << c->max_sense_to_act().count()
          << " ledger=0x" << std::hex << c->LedgerDigest() << std::dec << '\n';
    }
  }

  // --- the cross-layer report ---
  core::Report::Render(
      out,
      core::Report::Inputs{
          .dataset = &data,
          .qoe = &session.qoe(),
          .ran_counters =
              session.ran_uplink() ? &session.ran_uplink()->counters() : nullptr,
          .controller_target_bps = session.sender().controller().target_bps(),
      });

  // --- CSV export ---
  if (!opt.out_dir.empty()) {
    auto write_csv = [&](const std::string& name, auto&& writer) {
      write(opt.out_dir + "/" + RunPath(name, run_index, sweep), writer);
    };
    write_csv("packets.csv",
              [&](std::ostream& os) { core::CsvExport::Packets(os, data); });
    write_csv("frames.csv",
              [&](std::ostream& os) { core::CsvExport::Frames(os, data); });
    if (session.ran_uplink() != nullptr) {
      write_csv("telemetry.csv", [&](std::ostream& os) {
        core::CsvExport::Telemetry(os, session.ran_uplink()->telemetry());
      });
    }
    write_csv("capture_sender.csv", [&](std::ostream& os) {
      core::CsvExport::Capture(os, session.sender_capture().log());
    });
  }

  RunResult result;
  if (opt.fleet()) {
    const obs::live::DetectorBank* bank =
        observability && observability->live() != nullptr
            ? &observability->live()->bank()
            : nullptr;
    result.summary =
        obs::fleet::SummarizeSession({.dataset = &data,
                                      .qoe = &session.qoe(),
                                      .detectors = bank,
                                      .scenario = opt.access + "_" + opt.controller,
                                      .seed = seed});
  }
  result.text = out.str();
  return result;
}

world::WorldConfig BuildWorldConfig(const Options& opt) {
  world::WorldConfig config;
  config.seed = opt.seed;
  config.ues = opt.world_ues;
  config.cells = opt.world_cells;
  // The engine rejects layouts with empty shards; the CLI keeps its
  // documented clamp-to-cells behaviour instead of erroring out.
  config.shards = std::max<std::size_t>(1, std::min(opt.world_shards, opt.world_cells));
  config.threaded = opt.world_mode != "seq";
  config.duration = sim::Duration{std::chrono::seconds{opt.duration_s}};
  config.handover_every = opt.world_handover_every;
  config.correlate_jobs = opt.jobs;
  return config;
}

/// Chaos mode: run fault scenarios × derived seeds through the matrix
/// runner and fail loudly on any invariant violation. Returns the
/// process exit code.
int RunChaos(const Options& opt) {
  const std::vector<fault::ChaosScenario> catalog = fault::BuiltinScenarios();

  std::vector<fault::ChaosScenario> selected;
  if (opt.chaos == "all") {
    // The mitigation axis applies to session scenarios only.
    for (const fault::ChaosScenario& s : catalog) {
      if (!opt.mitigate || !s.is_world()) selected.push_back(s);
    }
  } else {
    // Comma-separated scenario names, e.g. the CI 2-scenario smoke pair.
    std::stringstream names{opt.chaos};
    std::string name;
    while (std::getline(names, name, ',')) {
      if (name.empty()) continue;
      const fault::ChaosScenario* s = fault::FindScenario(catalog, name);
      if (s == nullptr) {
        std::cerr << "unknown chaos scenario: " << name << " (try --chaos-list)\n";
        return 2;
      }
      if (opt.mitigate && s->is_world()) {
        std::cerr << "--mitigate applies to session scenarios only, not " << name << '\n';
        return 2;
      }
      selected.push_back(*s);
    }
    if (selected.empty()) {
      std::cerr << "--chaos needs at least one scenario name\n";
      return 2;
    }
  }
  if (opt.chaos_seeds == 0) {
    std::cerr << "--chaos-seeds must be >= 1\n";
    return 2;
  }
  if (opt.world()) {
    // Reshape the selected world scenarios to the --world-* layout.
    const world::WorldConfig layout = BuildWorldConfig(opt);
    for (fault::ChaosScenario& s : selected) {
      if (!s.is_world()) continue;
      s.shape.ues = layout.ues;
      s.shape.cells = layout.cells;
      s.shape.shards = layout.shards;
      s.shape.threaded = layout.threaded;
      if (layout.handover_every > 0) s.shape.handover_every = layout.handover_every;
      s.duration = layout.duration;
    }
  }

  const fault::ChaosRunOptions options{
      .mitigate = opt.mitigate,
      .budget = std::chrono::milliseconds{std::max(1, opt.mitigate_budget_ms)},
      .summarize = opt.fleet()};
  std::cout << "chaos: " << selected.size() << " scenario(s) x " << opt.chaos_seeds
            << " seed(s), " << sim::ParallelRunner{opt.jobs}.jobs() << " jobs, base seed "
            << opt.seed;
  if (opt.mitigate) {
    std::cout << ", mitigation on/off pairs, budget " << sim::ToMs(options.budget) << " ms";
  }
  std::cout << '\n';
  const fault::ChaosMatrixResult result =
      fault::RunChaosMatrix(selected, opt.seed, opt.chaos_seeds, opt.jobs, options);
  fault::RenderChaosTable(std::cout, result);

  if (!opt.chaos_out.empty()) {
    std::ofstream os{opt.chaos_out};
    if (!os) throw std::runtime_error("cannot write " + opt.chaos_out);
    fault::WriteChaosJson(os, result);
    std::cout << "wrote " << opt.chaos_out << '\n';
  }

  int exit_code = result.all_ok() ? 0 : 1;
  if (opt.fleet()) {
    // Outcomes arrive in index order regardless of --jobs, so the fold
    // (and therefore the report bytes and SLO windows) is reproducible.
    // World outcomes carry no session summary and are skipped.
    obs::fleet::FleetAggregator aggregator;
    obs::fleet::SloEngine engine{LoadSlos(opt)};
    for (const fault::ChaosOutcome& o : result.outcomes) {
      if (!o.summary) continue;
      aggregator.Fold(*o.summary);
      engine.Observe(*o.summary);
    }
    const int fleet_code = FinishFleet(opt, aggregator, engine);
    if (exit_code == 0) exit_code = fleet_code;
  }
  return exit_code;
}

/// Resilient mode: checkpointed, optionally supervised, optionally
/// restored run of a single session. Returns the process exit code.
int RunResilient(const Options& opt) {
  // The mitigation runtime must outlive the driver/supervisor: RunPlan is
  // copied per restart attempt and its hooks capture the runtime raw.
  std::unique_ptr<mitigation::control::MitigationRuntime> runtime;
  if (opt.mitigate) {
    mitigation::control::MitigationRuntime::Options mopt;
    mopt.controller.budget =
        sim::Duration{std::chrono::milliseconds{std::max(1, opt.mitigate_budget_ms)}};
    runtime = std::make_unique<mitigation::control::MitigationRuntime>(mopt);
  }

  resilience::RunPlan plan;
  plan.config = BuildConfig(opt, opt.seed);
  plan.duration = std::chrono::seconds{opt.duration_s};
  plan.checkpoint_every = std::chrono::milliseconds{opt.checkpoint_every_ms};
  plan.budget.input_bytes = opt.mem_budget;
  if (runtime) {
    // Every attempt (first run, restarts, --restore) rebinds a fresh
    // controller; the replayed ledger lands in the report appendix, so
    // restore byte-identity covers the control plane's decisions too.
    runtime->InstallConfigHooks(plan.config);
    mitigation::control::MitigationRuntime* rt = runtime.get();
    plan.trace_sink = rt->sink();
    plan.on_session = [rt](sim::Simulator& sim, app::Session& session) {
      rt->BindSession(sim, session);
    };
    plan.report_appendix = [rt](std::ostream& os) { rt->RenderLedger(os); };
  }
  if (!opt.checkpoint_out.empty()) {
    plan.on_checkpoint = [&](const resilience::Checkpoint& c) {
      c.WriteFile(opt.checkpoint_out);
      std::cout << "checkpoint @ " << c.virtual_time.ms() << " ms ("
                << c.SerializedBytes() << " bytes) -> " << opt.checkpoint_out << '\n';
    };
  }

  resilience::ProcessFaultSpec faults;
  if (opt.kill_at_ms > 0) {
    faults.kill_at = sim::kEpoch + std::chrono::milliseconds{opt.kill_at_ms};
  }
  faults.kill_every_events = opt.kill_every_events;

  std::optional<resilience::Checkpoint> start;
  if (!opt.restore_path.empty()) {
    start = resilience::Checkpoint::LoadFile(opt.restore_path);
    std::cout << "loaded checkpoint " << opt.restore_path << " @ "
              << start->virtual_time.ms() << " ms\n";
  }

  resilience::RunOutcome outcome;
  if (opt.supervise || faults.any()) {
    resilience::SupervisorOptions options;
    options.on_event = [](const std::string& m) {
      std::cout << "[supervisor] " << m << '\n';
    };
    resilience::Supervisor supervisor{std::move(plan), options};
    const resilience::SupervisedOutcome sup =
        start ? supervisor.RunFrom(*start, faults) : supervisor.Run(faults);
    std::cout << "supervision: crashes=" << sup.crashes << " stalls=" << sup.stalls
              << " restarts=" << sup.restarts << '\n';
    if (!sup.completed) {
      std::cerr << "supervised run did not complete: " << sup.last_error << '\n';
      return 1;
    }
    outcome = sup.outcome;
  } else {
    resilience::CheckpointingDriver driver{std::move(plan)};
    outcome = start ? driver.Resume(*start) : driver.Run();
  }

  if (outcome.restored) {
    std::cout << "restored from checkpoint: replayed state digest verified\n";
  }
  if (outcome.shed.total() > 0) {
    std::cout << "overload governor: shed " << outcome.shed.total() << " records ("
              << outcome.shed.capped() << " hard-capped)\n";
  }
  std::cout << outcome.report;
  std::cout << "final state digest: " << std::hex << outcome.final_digest
            << "  report digest: " << outcome.report_digest << std::dec << " ("
            << outcome.checkpoints_taken << " checkpoint(s), "
            << outcome.events_executed << " events)\n";
  return 0;
}

void PrintWorldSummary(const world::WorldResult& result) {
  std::cout << "world: " << result.shards << " shard(s) ("
            << (result.threaded ? "threaded" : "sequential") << "), "
            << result.windows << " windows\n"
            << "  wall " << result.wall_seconds << " s, busy "
            << result.busy_seconds << " s, critical path "
            << result.critical_path_seconds << " s\n"
            << "  events " << result.events_executed << ", mailbox msgs "
            << result.messages_delivered << ", handovers " << result.handovers
            << '\n'
            << "  ledger: offered " << result.offered << " = delivered "
            << result.delivered << " + lost " << result.lost << " + in-flight "
            << result.in_flight << " (transit " << result.in_transit_uplink
            << " up / " << result.in_transit_delivery << " down)\n"
            << "  conservation: " << (result.conservation_ok ? "OK" : "VIOLATED")
            << '\n'
            << "  digest: " << std::hex << result.digest << std::dec << '\n';
  if (!result.quarantined_cells.empty()) {
    std::cout << "  quarantine: " << result.quarantined_cells.size()
              << " cell(s) dark, " << result.evacuated << " UE(s) evacuated, "
              << result.stranded << " stranded\n";
  }
  if (!result.conservation_ok) {
    std::cout << "  violation: " << result.conservation_error << '\n';
  }
}

/// World mode: the sharded multi-cell engine. Returns the process exit
/// code (nonzero on conservation violation or cross-check mismatch).
int RunWorld(const Options& opt) {
  world::WorldResult result;
  if (opt.world_supervised()) {
    resilience::WorldSupervisorOptions options;
    options.checkpoint_every_windows = opt.world_checkpoint_every;
    options.on_event = [](const std::string& m) {
      std::cout << "[world-supervisor] " << m << '\n';
    };
    if (!opt.checkpoint_out.empty()) {
      options.on_checkpoint = [&opt](const resilience::Checkpoint& snapshot) {
        snapshot.WriteFile(opt.checkpoint_out);
      };
    }

    resilience::WorldFaultSpec faults;
    faults.crash_shard = opt.world_kill_shard;
    faults.crash_window = opt.world_kill_window;
    if (opt.world_kill_cell != world::WorldConfig::kNoCrash) {
      // Blamed-cell mode: keep killing until the cell's restart budget
      // is exhausted and the supervisor quarantines it.
      faults.blame_cell = opt.world_kill_cell;
      faults.max_kills = 8;
      options.cell_restart_budget = 1;
      options.max_restarts = 4;
    }

    const world::WorldConfig config = BuildWorldConfig(opt);
    resilience::WorldSupervisor supervisor{config, options};
    resilience::WorldSupervisedOutcome outcome;
    if (!opt.restore_path.empty()) {
      const resilience::Checkpoint start =
          resilience::Checkpoint::LoadFile(opt.restore_path);
      const std::uint64_t window = resilience::SnapshotWindow(config, start);
      std::cout << "loaded world snapshot " << opt.restore_path << " @ window "
                << window << " (" << start.mailbox.size() << " pending message(s))\n";
      outcome = supervisor.RunFrom(start, faults);
    } else {
      outcome = supervisor.Run(faults);
    }
    std::cout << "world supervision: crashes=" << outcome.crashes
              << " restarts=" << outcome.restarts << " restores=" << outcome.restores
              << " checkpoints=" << outcome.checkpoints_taken << " ("
              << outcome.last_snapshot_bytes << " B latest)\n";
    for (const std::size_t cell : outcome.quarantined_cells) {
      std::cout << "quarantined: cell " << cell << '\n';
    }
    if (!outcome.completed) {
      std::cerr << "supervised world did not complete: " << outcome.last_error << '\n';
      return 1;
    }
    result = std::move(outcome.result);
  } else {
    world::WorldEngine engine{BuildWorldConfig(opt)};
    result = engine.Run();
  }
  PrintWorldSummary(result);
  std::cout << "fleet: " << result.report.sessions << " session(s), "
            << result.report.scenarios.size() << " cell group(s)\n";

  if (!opt.fleet_report.empty()) {
    std::ofstream os{opt.fleet_report};
    if (!os) throw std::runtime_error("cannot write " + opt.fleet_report);
    os << result.fleet_json;
    std::cout << "wrote " << opt.fleet_report << '\n';
  }

  int exit_code = result.conservation_ok ? 0 : 1;
  if (opt.world_crosscheck) {
    // The determinism oracle: a 1-shard sequential run of the same
    // world must produce the exact same digest and report bytes. A
    // crash/restore run is held against an *uninterrupted* oracle —
    // recovery must be invisible — while a quarantine run legitimately
    // changes the world, so its oracle replays the same fault plan.
    world::WorldConfig reference = BuildWorldConfig(opt);
    reference.shards = 1;
    reference.threaded = false;
    world::WorldResult ref;
    if (opt.world_kill_cell != world::WorldConfig::kNoCrash) {
      resilience::WorldSupervisorOptions oracle_options;
      oracle_options.checkpoint_every_windows = opt.world_checkpoint_every;
      oracle_options.cell_restart_budget = 1;
      oracle_options.max_restarts = 4;
      resilience::WorldFaultSpec faults;
      faults.crash_shard = opt.world_kill_shard;
      faults.crash_window = opt.world_kill_window;
      faults.blame_cell = opt.world_kill_cell;
      faults.max_kills = 8;
      resilience::WorldSupervisor oracle{std::move(reference), oracle_options};
      resilience::WorldSupervisedOutcome oracle_outcome = oracle.Run(faults);
      if (!oracle_outcome.completed) {
        std::cerr << "cross-check oracle did not complete: "
                  << oracle_outcome.last_error << '\n';
        return 1;
      }
      ref = std::move(oracle_outcome.result);
    } else {
      world::WorldEngine oracle{std::move(reference)};
      ref = oracle.Run();
    }
    const bool match =
        ref.digest == result.digest && ref.fleet_json == result.fleet_json;
    std::cout << "digest cross-check: " << (match ? "PASS" : "FAIL") << " ("
              << result.shards << " shard(s) vs 1-shard oracle)\n";
    if (!match && exit_code == 0) exit_code = 1;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);

  try {
    if (opt.chaos_list) {
      for (const auto& s : fault::BuiltinScenarios()) {
        std::cout << s.name << " — " << s.description << '\n';
      }
      return 0;
    }
    if (opt.world() && opt.world_mode != "threads" && opt.world_mode != "seq") {
      std::cerr << "--world-mode must be 'threads' or 'seq'\n";
      return 2;
    }
    if (!opt.chaos.empty()) return RunChaos(opt);
    if (opt.world()) return RunWorld(opt);
    if (opt.fleet_gate && opt.sweep == 0 && !opt.resilient()) {
      // Gate-only mode: no run requested — compare an existing report
      // file against the baseline (the cheap CI re-check path).
      if (opt.fleet_report.empty() || opt.fleet_baseline.empty()) {
        std::cerr << "gate-only mode needs --fleet-report=FILE (existing) and "
                     "--fleet-baseline=FILE\n";
        return 2;
      }
      std::ifstream in{opt.fleet_report};
      if (!in) throw std::runtime_error("cannot read " + opt.fleet_report);
      return GateReport(opt, obs::fleet::ParseReport(in));
    }
    if (opt.resilient()) {
      if (opt.sweep > 0) {
        std::cerr << "--sweep and the resilience flags are mutually exclusive\n";
        return 2;
      }
      if (opt.fleet()) {
        std::cerr << "the fleet flags and the resilience flags are mutually "
                     "exclusive (use --chaos=kill_restore_midrun for supervised "
                     "fleet runs)\n";
        return 2;
      }
      return RunResilient(opt);
    }
    if (opt.export_shards > 0 && opt.expose_path.empty()) {
      std::cerr << "--export-shards needs --expose=FILE as the shard base path\n";
      return 2;
    }
    if (!opt.perfetto_out.empty() && opt.ingest_out.empty()) {
      std::cerr << "--perfetto-out needs --ingest-out (it converts that file)\n";
      return 2;
    }

    // Telemetry ingest pipeline: per-producer ring shards → one collector
    // thread → rollup + columnar stream. Runs (single or sweep) join it
    // through ObsSession::extra_sink; see src/obs/pipeline/pipeline.hpp.
    std::unique_ptr<obs::pipeline::TelemetryPipeline> pipeline;
    std::ofstream ingest_os;
    if (opt.pipeline()) {
      obs::pipeline::TelemetryPipeline::Options popt;
      popt.collector.ring_capacity = 1 << 16;
      if (opt.rollup_bucket_ms > 0) {
        popt.rollup.bucket_width = std::chrono::milliseconds{opt.rollup_bucket_ms};
      }
      if (!opt.ingest_out.empty()) {
        ingest_os.open(opt.ingest_out, std::ios::binary);
        if (!ingest_os) throw std::runtime_error("cannot write " + opt.ingest_out);
        popt.columnar_out = &ingest_os;
      }
      popt.background = true;
      pipeline = std::make_unique<obs::pipeline::TelemetryPipeline>(popt);
    }

    // Fleet aggregation folds every run's summary in index order, so the
    // report is byte-identical at any --jobs.
    obs::fleet::FleetAggregator fleet_aggregator;
    obs::fleet::SloEngine fleet_engine{LoadSlos(opt)};

    if (opt.sweep > 0) {
      // Every run is a pure function of its index (seed derived from
      // --seed), and outputs print in index order — so the sweep's output
      // is byte-identical for --jobs=1 and --jobs=8. (The pipeline's
      // rollup folds are commutative, so its aggregates are too; only the
      // columnar stream's cross-run interleaving depends on scheduling.)
      const auto n = static_cast<std::size_t>(opt.sweep);
      sim::ParallelRunner runner{opt.jobs};
      if (pipeline) runner.set_worker_hooks(pipeline->MakeWorkerHooks());
      std::cout << "sweep: " << n << " runs, " << runner.jobs() << " jobs, base seed "
                << opt.seed << '\n';
      const std::vector<RunResult> outputs =
          runner.Map<RunResult>(n, [&](std::size_t i) {
            return RunOne(opt, sim::DeriveSeed(opt.seed, i), i, /*sweep=*/true);
          });
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        std::cout << "--- run " << i << " ---\n" << outputs[i].text;
        if (opt.fleet()) {
          fleet_aggregator.Fold(outputs[i].summary);
          fleet_engine.Observe(outputs[i].summary);
        }
      }
    } else {
      if (pipeline) pipeline->BindCurrentThread();
      const RunResult result = RunOne(opt, opt.seed, 0, /*sweep=*/false);
      if (pipeline) pipeline->UnbindCurrentThread();
      std::cout << result.text;
      if (opt.fleet()) {
        fleet_aggregator.Fold(result.summary);
        fleet_engine.Observe(result.summary);
      }
    }

    if (pipeline) {
      // Finish publishes `pipeline.*` gauges into whichever registry is
      // installed here — a fleet-scope one, so the sharded exposition
      // carries the ingest counters alongside the rollup series.
      obs::MetricsRegistry fleet_registry;
      {
        obs::ScopedMetrics fleet_scope{&fleet_registry};
        pipeline->Finish();
      }
      ingest_os.close();
      if (!opt.ingest_out.empty()) std::cout << "wrote " << opt.ingest_out << '\n';

      if (!opt.rollup_out.empty()) {
        std::ofstream os{opt.rollup_out};
        if (!os) throw std::runtime_error("cannot write " + opt.rollup_out);
        pipeline->rollup().WriteJson(os);
        std::cout << "wrote " << opt.rollup_out << '\n';
      }
      for (unsigned s = 0; s < opt.export_shards; ++s) {
        const std::string path = TagPath(opt.expose_path, ".shard" + std::to_string(s));
        std::ofstream os{path};
        if (!os) throw std::runtime_error("cannot write " + path);
        obs::prom::WritePrometheus(os, fleet_registry, &pipeline->rollup(), nullptr,
                                   {.shard = s, .shard_count = opt.export_shards});
        std::cout << "wrote " << path << '\n';
      }
      if (!opt.perfetto_out.empty()) {
        if (opt.ingest_out.empty()) {
          std::cerr << "--perfetto-out needs --ingest-out (it converts that file)\n";
          return 2;
        }
        std::ifstream in{opt.ingest_out, std::ios::binary};
        if (!in) throw std::runtime_error("cannot read " + opt.ingest_out);
        std::ofstream os{opt.perfetto_out};
        if (!os) throw std::runtime_error("cannot write " + opt.perfetto_out);
        const std::uint64_t emitted = obs::pipeline::WriteChunkedPerfetto(in, os);
        std::cout << "wrote " << opt.perfetto_out << " (" << emitted << " events)\n";
      }
    }

    if (opt.fleet()) {
      const int fleet_code = FinishFleet(opt, fleet_aggregator, fleet_engine);
      if (fleet_code != 0) return fleet_code;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }
  return 0;
}
