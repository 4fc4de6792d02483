#include "workloads.hpp"

#include <sys/resource.h>

#include <array>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>

#include "core/correlator.hpp"
#include "core/report.hpp"
#include "mitigation/control/runtime.hpp"
#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/report.hpp"
#include "obs/fleet/slo.hpp"
#include "obs/fleet/summary.hpp"
#include "obs/obs.hpp"
#include "obs/pipeline/pipeline.hpp"
#include "resilience/supervisor.hpp"
#include "resilience/world_supervisor.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace athena;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

app::SessionConfig SessionConfigFor(std::uint64_t seed) {
  app::SessionConfig config;
  config.seed = seed;
  config.channel = ran::ChannelModel::FadingRadio();
  config.cross_traffic = net::CapacityTrace{16e6};
  config.cross_burstiness = 0.35;
  config.cross_modulation_sigma = 0.5;
  config.cell.cell_ul_capacity_bps = 25e6;
  return config;
}

// --- session_5g -------------------------------------------------------

SessionOp RunSession5g(std::uint64_t seed, bool traced) {
  SessionOp op;
  const auto t0 = Clock::now();
  Clock::time_point rendered;
  {
    sim::Simulator sim;
    std::optional<obs::ObsSession> observability;
    if (traced) {
      obs::ObsSession::Options options;
      options.trace = true;
      options.metrics = false;
      options.profile_sim = true;
      observability.emplace(sim, options);
    }
    const app::SessionConfig config = SessionConfigFor(seed);
    app::Session session{sim, config};
    session.Start();
    const auto t1 = Clock::now();
    sim.RunFor(kSessionSpan);
    session.Stop();
    const auto t2 = Clock::now();
    const core::CorrelatorInput input = session.BuildCorrelatorInput();
    const auto t3 = Clock::now();
    const core::CrossLayerDataset data = core::Correlator::Correlate(input);
    const auto t4 = Clock::now();
    const obs::fleet::SessionSummary summary = obs::fleet::SummarizeSession(
        {.dataset = &data, .qoe = &session.qoe(), .scenario = "5g_gcc", .seed = seed});
    const auto t5 = Clock::now();
    std::ostringstream report;
    core::Report::Render(
        report, core::Report::Inputs{
                    .dataset = &data,
                    .qoe = &session.qoe(),
                    .ran_counters = &session.ran_uplink()->counters(),
                    .controller_target_bps = session.sender().controller().target_bps(),
                });
    const auto t6 = Clock::now();
    op.report_digest = Fnv1a(report.str());
    if (!summary.valid) op.report_digest = 0;  // an invalid summary is a failed op

    op.setup_s = SecondsBetween(t0, t1);
    op.simulate_s = SecondsBetween(t1, t2);
    op.build_input_s = SecondsBetween(t2, t3);
    op.correlate_s = SecondsBetween(t3, t4);
    op.summarize_s = SecondsBetween(t4, t5);
    op.report_s = SecondsBetween(t5, t6);

    if (traced) {
      SessionLayers& l = op.layers;
      const sim::SimProfile& p = sim.profile();
      l.sim_events = p.events;
      l.sim_run_wall_s = p.run_wall_seconds;
      l.sim_callbacks_sampled = p.callbacks_sampled;
      l.sim_callback_ns = p.callback_ns_total;
      l.sim_queue_high_water = p.queue_high_water;
      l.capture_records = session.sender_capture().count() + session.core_capture().count() +
                          session.sfu_in_capture().count() +
                          session.sfu_out_capture().count() +
                          session.receiver_capture().count();
      const ran::RanCounters& ran = session.ran_uplink()->counters();
      l.ran_tbs = ran.tb_transmissions;
      l.ran_harq_retx = ran.tb_rtx;
      l.ran_granted_bytes = ran.granted_bytes;
      l.ran_used_bytes = ran.used_bytes;
      l.rtp_retransmissions = session.sender().retransmissions();
      l.cc_feedback_msgs = session.sender().feedback_received();
      l.media_frames_rendered = session.qoe().video_frames_rendered();
      l.packets = data.packets.size();
      observability->recorder().ForEach([&l](const obs::TraceEvent& e) {
        ++l.trace_events_per_layer[static_cast<std::size_t>(e.layer)];
      });
    }
    rendered = Clock::now();
  }
  const auto t_end = Clock::now();
  op.teardown_s = SecondsBetween(rendered, t_end);
  op.wall_s = SecondsBetween(t0, t_end);
  return op;
}

// --- session_supervised -----------------------------------------------

SupervisedOp RunSupervised(std::uint64_t seed, std::chrono::seconds cadence, bool kill,
                           bool time_restore) {
  SupervisedOp op;
  const auto t0 = Clock::now();
  std::optional<Clock::time_point> first_session;

  // The runtime outlives the supervisor: every attempt rebinds a fresh
  // controller through on_session, and the ledger joins the report.
  mitigation::control::MitigationRuntime runtime;
  resilience::RunPlan plan;
  plan.config = SessionConfigFor(seed);
  plan.duration = kSessionSpan;
  plan.checkpoint_every = cadence;
  runtime.InstallConfigHooks(plan.config);
  plan.trace_sink = runtime.sink();
  plan.on_session = [&](sim::Simulator& sim, app::Session& session) {
    if (!first_session) first_session = Clock::now();
    runtime.BindSession(sim, session);
  };
  plan.report_appendix = [&runtime](std::ostream& os) { runtime.RenderLedger(os); };
  std::optional<resilience::Checkpoint> kept;
  if (time_restore) {
    plan.on_checkpoint = [&kept](const resilience::Checkpoint& c) {
      if (c.virtual_time <= sim::kEpoch + kKillAt) kept = c;
    };
  }

  resilience::ProcessFaultSpec faults;
  if (kill) faults.kill_at = sim::kEpoch + kKillAt;
  resilience::Supervisor supervisor{plan};
  const auto t_run = Clock::now();
  const resilience::SupervisedOutcome out = supervisor.Run(faults);
  const auto t_end = Clock::now();
  op.wall_s = SecondsBetween(t0, t_end);
  op.run_s = SecondsBetween(t_run, t_end);
  op.setup_s = first_session ? SecondsBetween(t_run, *first_session) : 0.0;

  op.completed = out.completed;
  op.final_digest = out.outcome.final_digest;
  op.report_digest = out.outcome.report_digest;
  op.restarts = out.restarts;
  op.checkpoints = out.outcome.checkpoints_taken;
  op.checkpoint_bytes = out.outcome.last_checkpoint_bytes;
  if (const auto* c = runtime.controller()) {
    op.decisions = c->ledger().size();
    op.actuations = c->actuations();
    op.reverts = c->reverts();
  }

  if (time_restore && kept) {
    plan.on_checkpoint = nullptr;
    resilience::CheckpointingDriver resumer{plan};
    const auto r0 = Clock::now();
    const resilience::RunOutcome resumed = resumer.Resume(*kept);
    op.restore_s = SecondsBetween(r0, Clock::now());
    if (resumed.final_digest != op.final_digest ||
        resumed.report_digest != op.report_digest) {
      op.completed = false;  // a restore that lands elsewhere is a failure
    }
  }
  return op;
}

// --- fleet_sweep ------------------------------------------------------

namespace {

/// The ATHC destination: an in-memory stream that keeps one 64 KiB block
/// and counts what passes through, so memory use does not depend on how
/// many events the collector happened to keep.
class CountingBuf final : public std::streambuf {
 public:
  CountingBuf() { setp(block_.data(), block_.data() + block_.size()); }
  [[nodiscard]] std::uint64_t bytes() const {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type ch) override {
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(block_.data(), block_.data() + block_.size());
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  std::array<char, 64 * 1024> block_{};
  std::uint64_t flushed_ = 0;
};

struct FleetTask {
  obs::fleet::SessionSummary summary;
  double wall_s = 0.0;
  double summarize_s = 0.0;
};

/// One sweep run, wired like the CLI's `--sweep --fleet-report` path:
/// live detectors on, plus this worker's ring shard when a pipeline is
/// bound to the thread.
FleetTask RunFleetSession(std::uint64_t seed) {
  FleetTask task;
  const auto t0 = Clock::now();
  sim::Simulator sim;
  obs::ObsSession::Options options;
  options.trace = false;
  options.metrics = true;
  options.live = true;
  options.extra_sink = obs::pipeline::TelemetryPipeline::CurrentThreadSink();
  obs::ObsSession observability{sim, options};
  app::Session session{sim, SessionConfigFor(seed)};
  session.Run(kFleetSpan);
  const core::CrossLayerDataset data =
      core::Correlator::Correlate(session.BuildCorrelatorInput());
  const auto t1 = Clock::now();
  task.summary = obs::fleet::SummarizeSession({.dataset = &data,
                                               .qoe = &session.qoe(),
                                               .detectors = &observability.live()->bank(),
                                               .scenario = "5g_gcc",
                                               .seed = seed});
  const auto t2 = Clock::now();
  task.summarize_s = SecondsBetween(t1, t2);
  task.wall_s = SecondsBetween(t0, t2);
  return task;
}

}  // namespace

FleetOp RunFleetSweep(std::uint64_t base_seed, unsigned jobs, bool pipeline) {
  FleetOp op;
  const auto t0 = Clock::now();
  CountingBuf athc_buf;
  std::ostream athc{&athc_buf};
  std::unique_ptr<obs::pipeline::TelemetryPipeline> telemetry;
  if (pipeline) {
    obs::pipeline::TelemetryPipeline::Options options;
    options.collector.ring_capacity = kRingCapacity;
    options.columnar_out = &athc;
    options.background = true;
    telemetry = std::make_unique<obs::pipeline::TelemetryPipeline>(options);
  }
  sim::ParallelRunner runner{jobs};
  if (telemetry) runner.set_worker_hooks(telemetry->MakeWorkerHooks());
  op.jobs = runner.jobs();
  const auto t1 = Clock::now();
  const std::vector<FleetTask> tasks = runner.Map<FleetTask>(
      kFleetSessions,
      [base_seed](std::size_t i) { return RunFleetSession(sim::DeriveSeed(base_seed, i)); });
  const auto t2 = Clock::now();
  if (telemetry) telemetry->Finish();
  const auto t3 = Clock::now();

  obs::fleet::FleetAggregator aggregator;
  obs::fleet::SloEngine slos{obs::fleet::DefaultSlos()};
  for (const FleetTask& task : tasks) {
    aggregator.Fold(task.summary);
    slos.Observe(task.summary);
  }
  std::ostringstream report;
  obs::fleet::WriteJson(obs::fleet::BuildReport(aggregator, slos), report);
  const auto t4 = Clock::now();
  op.report_digest = Fnv1a(report.str());

  for (const FleetTask& task : tasks) {
    op.task_s_sum += task.wall_s;
    op.summarize_s.push_back(task.summarize_s);
    for (const std::uint64_t n : task.summary.anomalies) op.anomalies += n;
  }
  if (telemetry) {
    op.rings = telemetry->collector().TotalRingStats();
    op.ingested = telemetry->collector().stats().events;
    op.athc_bytes = athc_buf.bytes();
  }
  telemetry.reset();
  op.setup_s = SecondsBetween(t0, t1);
  op.map_s = SecondsBetween(t1, t2);
  op.finish_s = SecondsBetween(t2, t3);
  op.report_s = SecondsBetween(t3, t4);
  op.wall_s = SecondsBetween(t0, Clock::now());
  return op;
}

// --- world_sharded ----------------------------------------------------

world::WorldConfig WorldConfigFor(std::uint64_t seed, std::size_t shards, bool threaded) {
  world::WorldConfig config;
  config.seed = seed;
  config.ues = kWorldUes;
  config.cells = kWorldCells;
  config.shards = shards;
  config.threaded = threaded;
  config.duration = kWorldSpan;
  config.handover_every = kWorldHandoverEvery;
  config.correlate_jobs = threaded ? static_cast<unsigned>(shards) : 1;
  return config;
}

WorldOp RunWorld(const world::WorldConfig& config) {
  WorldOp op;
  const auto t0 = Clock::now();
  Clock::time_point run_entry;
  Clock::time_point run_return;
  std::optional<Clock::time_point> first_hook;
  Clock::time_point last_hook;
  {
    world::WorldEngine engine{config};
    // The hook only reads the clock; it runs with every shard parked, and
    // Run() joins its workers before returning, so these writes are seen.
    engine.set_window_hook([&](std::uint64_t) {
      const auto now = Clock::now();
      if (!first_hook) first_hook = now;
      last_hook = now;
    });
    run_entry = Clock::now();
    op.result = engine.Run();
    run_return = Clock::now();
  }
  const auto t_end = Clock::now();
  op.construct_s = SecondsBetween(t0, run_entry);
  op.teardown_s = SecondsBetween(run_return, t_end);
  op.wall_s = SecondsBetween(t0, t_end);
  if (first_hook) {
    op.setup_s = SecondsBetween(run_entry, *first_hook);
    op.loop_s = SecondsBetween(*first_hook, last_hook);
    op.post_run_s = SecondsBetween(last_hook, run_return);
  }
  return op;
}

WorldSnapshotOp RunWorldSupervised(const world::WorldConfig& config) {
  WorldSnapshotOp op;
  const auto t0 = Clock::now();
  resilience::WorldSupervisor supervisor{config, resilience::WorldSupervisorOptions{}};
  resilience::WorldSupervisedOutcome out = supervisor.Run(resilience::WorldFaultSpec{});
  op.wall_s = SecondsBetween(t0, Clock::now());
  op.completed = out.completed;
  op.digest = out.result.digest;
  op.snapshot_bytes = out.last_snapshot_bytes;
  return op;
}

}  // namespace perfbench
