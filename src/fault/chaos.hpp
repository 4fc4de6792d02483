// The chaos harness: named fault scenarios, the contract each run must
// uphold, and a deterministic scenario × seed matrix runner.
//
// A session scenario impairs one Session's correlator input with a
// FaultInjector and checks the *degradation contract*, not just
// survival: a lossy scenario must raise explicit degraded-mode signals
// (stream health, gap counters, the telemetry_gap anomaly) and the clean
// baseline none. Session scenarios also take the mitigation axis: as an
// on/off pair, the closed loop must hold QoE and its guardrails must
// engage on hostile telemetry. A world scenario faults the sharded
// multi-cell engine (a dark cell, a dead shard, a quarantined cell) and
// judges the population the fault hit.
//
// Every run is a pure function of (scenario, seed, options), so the
// matrix is byte-identical under sim::ParallelRunner at any job count.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "app/session.hpp"
#include "fault/fault.hpp"
#include "obs/fleet/summary.hpp"
#include "resilience/world_supervisor.hpp"
#include "sim/time.hpp"
#include "world/engine.hpp"

namespace athena::fault {

/// What the degradation contract requires of a scenario's runs. All
/// false = the strict clean contract: zero faults, zero degradation,
/// zero telemetry_gap anomalies.
struct ChaosExpectation {
  /// CorrelationHealth::degraded() must be true on every run.
  bool degraded = false;
  /// The live telemetry_gap detector must emit at least one anomaly.
  bool telemetry_gap_anomaly = false;
  /// The telemetry stream itself must be flagged (gap windows counted or
  /// repairs performed) — stricter than `degraded`, which any stream or
  /// the coverage check can satisfy.
  bool telemetry_flagged = false;
  /// The fault is below the pipeline's detection floor by design (e.g. a
  /// small clock drift): only the hard invariants apply; degradation may
  /// or may not be reported.
  bool tolerated = false;
  /// Supervised scenarios: the run must be killed at least once, restored
  /// from a checkpoint, and finish with final/report digests byte-identical
  /// to an uninterrupted run of the same plan.
  bool restore_identical = false;
  /// Overload scenarios: the governor must shed (loudly), the bounded
  /// input must fit its byte budget, the live overload detector must
  /// fire, and correlation of the surviving records must still succeed.
  bool bounded_memory = false;
  /// Under --mitigate, the controller's guardrails must visibly engage:
  /// the decision ledger must show at least one block or revert (the
  /// telemetry feeding the control plane is lying or vanishing, so
  /// acting blindly on it would be the failure). Ignored by the plain
  /// (un-mitigated) contract.
  bool mitigation_guarded = false;
};

/// The contract a world scenario checks (chaos.cpp has each in full);
/// kNone marks a session scenario.
enum class WorldContract : std::uint8_t {
  kNone,
  kCellOutage,         ///< cell 0 dark from a quarter of the run to its end
  kShardCrashRestore,  ///< shard 1 dies; the restored world must be byte-identical
  kCellQuarantine,     ///< a crash-looping cell is quarantined and evacuated
};

/// A world scenario's layout. The seed comes from the matrix and the
/// run length from ChaosScenario::duration.
struct WorldShape {
  std::size_t ues = 0;
  std::size_t cells = 0;
  std::size_t shards = 0;
  bool threaded = true;
  /// Every k-th UE also hands over during the fault (0 = none).
  std::size_t handover_every = 0;
};

struct ChaosScenario {
  std::string name;
  std::string description;
  FaultPlan plan;
  ChaosExpectation expect;

  /// Session shape. Short calls keep the full matrix in the seconds
  /// range; cross-traffic exercises the detectors under contention.
  /// World scenarios run their world for `duration` too.
  sim::Duration duration{std::chrono::seconds{2}};
  double cross_mbps = 0.0;

  /// Run under the resilience Supervisor (crash injection + restore path)
  /// instead of the plain session loop. When `plan.process` sets no kill
  /// point, a seed-derived virtual-time kill is used, so every seed in
  /// the matrix kills at a different point.
  bool supervised = false;
  /// Overload-governor budget applied to the (impaired) correlator input;
  /// default = unbounded.
  resilience::MemoryBudget budget{};

  /// World scenarios: the contract and the world it runs on.
  WorldContract world = WorldContract::kNone;
  WorldShape shape;

  [[nodiscard]] bool is_world() const { return world != WorldContract::kNone; }
};

/// The built-in scenario catalog: the session scenarios first (spanning
/// every fault model), then the world scenarios. Names are stable
/// CLI/script identifiers.
[[nodiscard]] std::vector<ChaosScenario> BuiltinScenarios();

/// The session every session scenario runs for (scenario, seed): the
/// seed, plus the scenario's cross traffic at 0.35 burstiness.
[[nodiscard]] app::SessionConfig ScenarioSessionConfig(const ChaosScenario& scenario,
                                                       std::uint64_t seed);

/// Finds a scenario by name; null when unknown.
[[nodiscard]] const ChaosScenario* FindScenario(const std::vector<ChaosScenario>& scenarios,
                                                std::string_view name);

/// How a chaos run is driven, for every scenario of a matrix alike.
struct ChaosRunOptions {
  /// Run session scenarios as mitigation-on/off pairs and judge the QoE
  /// and guardrail contracts. World scenarios take no mitigation axis.
  bool mitigate = false;
  /// The controller's hard sense-to-act bound (virtual time).
  sim::Duration budget{std::chrono::milliseconds{50}};
  /// Attach the fleet SessionSummary to session outcomes.
  bool summarize = false;
};

/// Evidence of the plain and supervised session contracts.
struct SessionEvidence {
  bool time_monotone = false;  ///< virtual time reached the configured end
  bool queues_bounded = false; ///< event queue drained / detector windows bounded
  /// Degradation was reported where the scenario demands it, and the
  /// clean baseline stayed pristine.
  bool contract_met = false;
  /// Faults were injected but no degraded-mode signal surfaced anywhere
  /// (the failure mode the contract exists to prevent on lossy plans).
  bool silently_degraded = false;

  std::uint64_t faults_injected = 0;
  bool health_degraded = false;        ///< CorrelationHealth::degraded()
  std::uint64_t telemetry_gaps = 0;    ///< confirmed gap windows
  std::uint64_t telemetry_repairs = 0; ///< dup/ooo repairs on the telemetry stream
  std::uint64_t uncovered_packets = 0;
  std::uint64_t unmatched_tb_bytes = 0;  ///< phantom TB payload (corruption signal)
  double mean_match_confidence = 1.0;
  std::uint64_t anomalies_total = 0;       ///< all detectors, impaired replay
  std::uint64_t telemetry_gap_anomalies = 0;
  std::uint64_t packets_correlated = 0;
  std::uint64_t events_executed = 0;

  // --- resilience evidence (supervised / budgeted scenarios) ---
  int kills = 0;                      ///< injected crashes observed
  int restores = 0;                   ///< attempts that began from a checkpoint
  bool digest_match = false;          ///< restored digests == uninterrupted run's
  std::uint64_t shed_total = 0;       ///< overload-governor ledger, all tiers
  std::uint64_t shed_capped = 0;      ///< hard-capped data records
  std::size_t bounded_bytes = 0;      ///< input bytes after BoundInput
  std::uint64_t overload_anomalies = 0;
};

/// The QoE facets a mitigation on/off pair is judged on.
struct MitigationQoe {
  double ssim_mean = 0.0;
  double late_fraction = 0.0;  ///< frames late / max(1, frames rendered)
  double audio_loss = 0.0;
  double audio_mos = 0.0;
  std::uint64_t frames_rendered = 0;
};

/// Evidence of a mitigation on/off pair: the session run plain and under
/// the closed loop, with the scenario's telemetry faults applied live to
/// the control plane's feed.
struct MitigationEvidence {
  MitigationQoe baseline;
  MitigationQoe mitigated;

  std::uint64_t decisions = 0;
  std::uint64_t actuations = 0;
  std::uint64_t reverts = 0;
  std::uint64_t guardrail_blocks = 0;
  std::int64_t max_sense_to_act_us = 0;

  bool budget_ok = false;   ///< every actuation within the sense-to-act budget
  bool qoe_ok = false;      ///< mitigated QoE never regresses beyond slack
  bool guarded_ok = false;  ///< guardrail engagement where the scenario demands it
};

/// Evidence of a world contract: the clean world it is held against and
/// the faulted one (supervision counters stay zero for the outage).
struct WorldEvidence {
  world::WorldResult clean;
  resilience::WorldSupervisedOutcome faulted;
};

/// One run's verdict, next to the evidence of whichever contract ran.
struct ChaosOutcome {
  std::string scenario;
  std::uint64_t seed = 0;
  bool survived = false;  ///< every run of the contract completed, no throw
  std::string failure;    ///< first violated check, empty when ok()
  /// Session: the impaired-input InputDigest (supervised: the final state
  /// digest). Mitigation pair: the decision-ledger digest. World: the
  /// faulted world's digest.
  std::uint64_t digest = 0;
  /// Fleet digest of the session this run observed (delay decomposition,
  /// QoE, detector verdicts; the mitigated leg of a pair). Set only for
  /// session scenarios run with ChaosRunOptions::summarize.
  std::optional<obs::fleet::SessionSummary> summary;

  std::variant<SessionEvidence, MitigationEvidence, WorldEvidence> evidence;

  [[nodiscard]] bool ok() const { return survived && failure.empty(); }

  [[nodiscard]] const SessionEvidence& session() const {
    return std::get<SessionEvidence>(evidence);
  }
  [[nodiscard]] const MitigationEvidence& mitigation() const {
    return std::get<MitigationEvidence>(evidence);
  }
  [[nodiscard]] const WorldEvidence& world() const {
    return std::get<WorldEvidence>(evidence);
  }
};

/// Runs one scenario under one seed and checks its contract: the plain
/// session (impair → correlate → detector replay), the supervised
/// session (kill → restore → digest identity), the mitigation on/off
/// pair, or the world contract. Never throws; a crashed run returns
/// survived == false.
[[nodiscard]] ChaosOutcome RunChaosScenario(const ChaosScenario& scenario,
                                            std::uint64_t seed,
                                            const ChaosRunOptions& options = {});

struct ChaosMatrixResult {
  std::uint64_t base_seed = 0;
  std::size_t seeds = 0;
  unsigned jobs = 0;  ///< workers the matrix ran on
  ChaosRunOptions options;
  /// Scenario-major, seed-minor — index order, identical for any job count.
  std::vector<ChaosOutcome> outcomes;

  [[nodiscard]] std::size_t failures() const {
    return std::count_if(outcomes.begin(), outcomes.end(), [](auto& o) { return !o.ok(); });
  }
  [[nodiscard]] bool all_ok() const { return failures() == 0; }
};

/// Runs every scenario under every derived seed (run (s, i) gets
/// sim::DeriveSeed(base_seed, i)) on `jobs` workers. Results stay in
/// index order, so downstream aggregation is byte-identical at any job
/// count.
[[nodiscard]] ChaosMatrixResult RunChaosMatrix(const std::vector<ChaosScenario>& scenarios,
                                               std::uint64_t base_seed, std::size_t seeds,
                                               unsigned jobs,
                                               const ChaosRunOptions& options = {});

/// Machine-readable matrix report: the BENCH_chaos.json schema, or the
/// BENCH_mitigation.json schema for a mitigation matrix.
void WriteChaosJson(std::ostream& os, const ChaosMatrixResult& result);

/// Human-readable one-line-per-run table.
void RenderChaosTable(std::ostream& os, const ChaosMatrixResult& result);

}  // namespace athena::fault
