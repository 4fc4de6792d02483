// The chaos harness: named fault scenarios, the invariants every
// impaired run must uphold, and a deterministic scenario × seed matrix
// runner.
//
// A chaos run is a full Session driven to completion, its correlator
// input impaired by a FaultInjector, correlated, and replayed through
// the live detector bank. The harness then checks the *degradation
// contract*, not just survival: a lossy scenario must produce explicit
// degraded-mode signals (stream health, gap counters, the telemetry_gap
// anomaly), and the clean baseline must produce none. Every run is a
// pure function of (scenario, seed), so the matrix is reproducible under
// sim::ParallelRunner with any job count — the per-run InputDigest is
// the cross-job identity check bench/run_chaos_matrix.sh relies on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "app/session.hpp"
#include "fault/fault.hpp"
#include "obs/fleet/summary.hpp"
#include "sim/time.hpp"

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

struct ChaosScenario {
  std::string name;
  std::string description;
  FaultPlan plan;
  ChaosExpectation expect;

  /// Session shape. Short calls keep the full matrix in the seconds
  /// range; cross-traffic exercises the detectors under contention.
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
};

/// The built-in scenario catalog (≥ 8 scenarios spanning every fault
/// model). Names are stable CLI/script identifiers.
[[nodiscard]] std::vector<ChaosScenario> BuiltinScenarios();

/// The session every chaos harness runs for (scenario, seed): the seed,
/// plus the scenario's cross traffic at 0.35 burstiness.
[[nodiscard]] app::SessionConfig ScenarioSessionConfig(const ChaosScenario& scenario,
                                                       std::uint64_t seed);

/// Finds a scenario by name; null when unknown.
[[nodiscard]] const ChaosScenario* FindScenario(const std::vector<ChaosScenario>& scenarios,
                                                std::string_view name);

/// One run's verdict: hard invariants, contract checks and the evidence
/// they were judged on.
struct ChaosOutcome {
  std::string scenario;
  std::uint64_t seed = 0;

  // --- hard invariants (must hold for every scenario) ---
  bool survived = false;       ///< session + correlation completed, no throw
  bool time_monotone = false;  ///< virtual time reached the configured end
  bool queues_bounded = false; ///< event queue drained / detector windows bounded

  // --- degradation contract ---
  /// Degradation was reported where the scenario demands it, and the
  /// clean baseline stayed pristine.
  bool contract_met = false;
  /// Faults were injected but no degraded-mode signal surfaced anywhere
  /// (the failure mode the contract exists to prevent on lossy plans).
  bool silently_degraded = false;

  // --- evidence ---
  std::uint64_t digest = 0;            ///< impaired-input InputDigest
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

  std::string failure;  ///< first violated check, empty when ok()

  /// Fleet digest of this run (delay decomposition, QoE, detector
  /// verdicts); only populated when the run was asked to summarize.
  obs::fleet::SessionSummary summary;

  [[nodiscard]] bool ok() const {
    return survived && time_monotone && queues_bounded && contract_met &&
           !silently_degraded;
  }
};

/// Runs one scenario under one seed: session → impair → correlate →
/// detector replay → invariant checks. Never throws; a crashed run
/// returns survived == false. With `summarize`, the outcome also carries
/// the fleet SessionSummary (supervised scenarios re-run the same plan
/// uninterrupted to extract it — the underlying session is identical).
[[nodiscard]] ChaosOutcome RunChaosScenario(const ChaosScenario& scenario,
                                            std::uint64_t seed,
                                            bool summarize = false);

struct ChaosMatrixResult {
  /// Scenario-major, seed-minor — index order, identical for any job count.
  std::vector<ChaosOutcome> outcomes;

  [[nodiscard]] bool all_ok() const {
    for (const auto& o : outcomes) {
      if (!o.ok()) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t failures() const {
    std::size_t n = 0;
    for (const auto& o : outcomes) n += o.ok() ? 0 : 1;
    return n;
  }
};

/// Runs every scenario under every derived seed (run (s, i) gets
/// sim::DeriveSeed(base_seed, i)) on `jobs` workers. `summarize` attaches
/// a fleet SessionSummary to every outcome (results stay in index order,
/// so downstream aggregation is byte-identical at any job count).
[[nodiscard]] ChaosMatrixResult RunChaosMatrix(const std::vector<ChaosScenario>& scenarios,
                                               std::uint64_t base_seed, std::size_t seeds,
                                               unsigned jobs, bool summarize = false);

/// Machine-readable matrix report (BENCH_chaos.json schema).
void WriteChaosJson(std::ostream& os, const ChaosMatrixResult& result,
                    std::uint64_t base_seed, std::size_t seeds, unsigned jobs);

/// Human-readable one-line-per-run table.
void RenderChaosTable(std::ostream& os, const ChaosMatrixResult& result);

}  // namespace athena::fault
