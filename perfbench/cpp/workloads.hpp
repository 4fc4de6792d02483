// The benchmark's four workloads, each one operation at a time, timed
// from outside through the modules' public API (app::Session,
// core::Correlator, obs::fleet, obs::pipeline::TelemetryPipeline,
// resilience::Supervisor, world::WorldEngine). main.cpp
// repeats operations, checks their digests and reduces the timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "app/session.hpp"
#include "obs/pipeline/ring.hpp"
#include "obs/trace.hpp"
#include "world/config.hpp"
#include "world/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double SecondsBetween(Clock::time_point a, Clock::time_point b);
/// CPU seconds consumed by every thread of this process so far.
[[nodiscard]] double ProcessCpuSeconds();
/// Peak resident set of this process, MiB.
[[nodiscard]] double PeakRssMb();

// --- shared session shape ---------------------------------------------

/// The paper's loaded 5G session: fading radio, 16 Mbps bursty cross
/// traffic on a 25 Mbps cell, GCC.
[[nodiscard]] athena::app::SessionConfig SessionConfigFor(std::uint64_t seed);

inline constexpr std::size_t kSessionsPerRep = 32;       ///< session_5g
inline constexpr std::chrono::seconds kSessionSpan{60};  ///< session_5g + supervised
inline constexpr std::size_t kSupervisedPerRep = 4;
inline constexpr std::chrono::seconds kCheckpointEvery{5};
inline constexpr std::chrono::seconds kKillAt{40};       ///< ~2/3 of the span
inline constexpr std::size_t kFleetSessions = 32;
inline constexpr std::chrono::seconds kFleetSpan{30};
inline constexpr std::size_t kRingCapacity = 1 << 16;    ///< as in the CLI
inline constexpr std::size_t kWorldUes = 512;
inline constexpr std::size_t kWorldCells = 8;
inline constexpr std::size_t kWorldHandoverEvery = 16;
inline constexpr std::chrono::seconds kWorldSpan{2};

// --- session_5g -------------------------------------------------------

/// Per-layer observations of one traced session (the program's own
/// SimProfile and TraceRecorder plus its public counters).
struct SessionLayers {
  std::uint64_t sim_events = 0;
  double sim_run_wall_s = 0.0;
  std::uint64_t sim_callbacks_sampled = 0;
  std::uint64_t sim_callback_ns = 0;
  std::uint64_t sim_queue_high_water = 0;
  std::uint64_t capture_records = 0;
  std::uint64_t ran_tbs = 0;
  std::uint64_t ran_harq_retx = 0;
  std::uint64_t ran_granted_bytes = 0;
  std::uint64_t ran_used_bytes = 0;
  std::uint64_t rtp_retransmissions = 0;
  std::uint64_t cc_feedback_msgs = 0;
  std::uint64_t media_frames_rendered = 0;
  std::uint64_t packets = 0;
  std::vector<std::uint64_t> trace_events_per_layer =
      std::vector<std::uint64_t>(athena::obs::kLayerCount, 0);
};

/// One session_5g operation: Session -> Run -> BuildCorrelatorInput ->
/// Correlate -> SummarizeSession -> Report::Render, phase by phase.
struct SessionOp {
  double setup_s = 0.0;        ///< config + Session construction + Start
  double simulate_s = 0.0;     ///< the simulated span + Stop
  double build_input_s = 0.0;
  double correlate_s = 0.0;
  double summarize_s = 0.0;
  double report_s = 0.0;
  double teardown_s = 0.0;     ///< destroying the session, its logs and the dataset
  double wall_s = 0.0;         ///< whole operation
  std::uint64_t report_digest = 0;  ///< FNV-1a of the rendered report text
  SessionLayers layers;        ///< filled only when traced
};

/// `traced` turns on the program's SimProfile and TraceRecorder for the
/// session (an obs::ObsSession); otherwise observability is off.
[[nodiscard]] SessionOp RunSession5g(std::uint64_t seed, bool traced);

// --- session_supervised -----------------------------------------------

struct SupervisedOp {
  double setup_s = 0.0;   ///< Supervisor::Run entry -> the plan's on_session hook
  double run_s = 0.0;     ///< Supervisor::Run, entry to return
  double wall_s = 0.0;    ///< plan build through the rendered report
  bool completed = false;
  std::uint64_t final_digest = 0;
  std::uint64_t report_digest = 0;
  int restarts = 0;
  std::size_t checkpoints = 0;
  std::size_t checkpoint_bytes = 0;  ///< size of the last snapshot
  std::uint64_t decisions = 0;
  std::uint64_t actuations = 0;
  std::uint64_t reverts = 0;
  /// CheckpointingDriver::Resume from the kKillAt snapshot (time_restore).
  double restore_s = 0.0;
};

/// One supervised 60 s session with closed-loop mitigation. `cadence`
/// 0 disables checkpoints; `kill` injects one process death at kKillAt.
/// With `time_restore`, the last snapshot at or before kKillAt is kept and
/// a CheckpointingDriver::Resume from it is timed into `restore_s`; a
/// resumed run whose digests differ marks the op incomplete.
[[nodiscard]] SupervisedOp RunSupervised(std::uint64_t seed, std::chrono::seconds cadence,
                                         bool kill, bool time_restore = false);

// --- fleet_sweep ------------------------------------------------------

struct FleetOp {
  double setup_s = 0.0;        ///< pipeline + runner construction
  double map_s = 0.0;          ///< the ParallelRunner sweep
  double task_s_sum = 0.0;     ///< sum of per-session task wall time
  double finish_s = 0.0;       ///< TelemetryPipeline::Finish
  double report_s = 0.0;       ///< fold + SLO + BuildReport + WriteJson
  double wall_s = 0.0;
  std::vector<double> summarize_s;  ///< per SummarizeSession call
  unsigned jobs = 1;
  std::uint64_t report_digest = 0;  ///< FNV-1a of the FleetReport JSON
  std::uint64_t anomalies = 0;      ///< across all summaries
  athena::obs::pipeline::RingStats rings;
  std::uint64_t ingested = 0;
  std::uint64_t athc_bytes = 0;
};

/// A derived-seed session sweep on `jobs` workers. With `pipeline`, runs
/// feed a background TelemetryPipeline writing ATHC to memory.
[[nodiscard]] FleetOp RunFleetSweep(std::uint64_t base_seed, unsigned jobs, bool pipeline);

// --- world_sharded ----------------------------------------------------

/// 512 UEs x 8 cells over `shards` shards, handover every 16th UE.
/// `threaded` runs one worker per shard and correlates on `shards`
/// threads; otherwise the engine's sequential mode runs the same window
/// loop round-robin on the calling thread and correlates on it too.
[[nodiscard]] athena::world::WorldConfig WorldConfigFor(std::uint64_t seed, std::size_t shards,
                                                        bool threaded);

struct WorldOp {
  double construct_s = 0.0; ///< WorldEngine construction
  double setup_s = 0.0;     ///< Run() entry -> first window hook
  double loop_s = 0.0;      ///< first -> last window hook
  double post_run_s = 0.0;  ///< last window hook -> Run() return
  double teardown_s = 0.0;  ///< WorldEngine destruction
  double wall_s = 0.0;      ///< construction through destruction
  athena::world::WorldResult result;
};

[[nodiscard]] WorldOp RunWorld(const athena::world::WorldConfig& config);

struct WorldSnapshotOp {
  double wall_s = 0.0;
  bool completed = false;
  std::uint64_t digest = 0;
  std::size_t snapshot_bytes = 0;
};

/// The same world under resilience::WorldSupervisor at its default
/// snapshot cadence, no faults.
[[nodiscard]] WorldSnapshotOp RunWorldSupervised(const athena::world::WorldConfig& config);

}  // namespace perfbench
