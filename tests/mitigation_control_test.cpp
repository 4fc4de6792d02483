// Tests for the online mitigation control plane (src/mitigation/control/):
//
//   * MitigationControllerTest — the guardrail contract, knob by knob:
//     hysteresis, confidence gate (low confidence / gate anomalies /
//     degraded correlation), cooldown anti-flap, the QoE watchdog and the
//     feed-silence fail-safe, refusal recording, and the sense-to-act
//     budget in virtual time.
//   * MitigationMatrixTest — the chaos-facing determinism surface: the
//     mitigation on/off matrix is byte-identical across --jobs and across
//     repeated runs, and the guarded scenarios actually engage the
//     guardrails. (This suite is also the TSAN probe: pairs run on
//     ParallelRunner workers, each with a private runtime + LiveEngine.)
//   * MitigationCheckpointTest — a supervised kill/restore replays the
//     decision ledger byte-identically, and the ledger joins the report
//     digest surface via RunPlan::report_appendix.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "fault/chaos.hpp"
#include "mitigation/control/controller.hpp"
#include "mitigation/control/runtime.hpp"
#include "net/capacity_trace.hpp"
#include "obs/live/anomaly.hpp"
#include "obs/metrics.hpp"
#include "ran/types.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/supervisor.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
namespace ctl = mitigation::control;
using ctl::DecisionOutcome;
using ctl::Knob;
using obs::live::AnomalyEvent;
using obs::live::AnomalyKind;
using resilience::CheckpointingDriver;
using resilience::ProcessFaultSpec;
using resilience::RunPlan;
using resilience::Supervisor;
using resilience::SupervisorOptions;
using sim::kEpoch;

AnomalyEvent Verdict(AnomalyKind kind, double confidence) {
  AnomalyEvent event;
  event.kind = kind;
  event.confidence = confidence;
  return event;
}

std::size_t CountOutcome(const ctl::MitigationController& controller,
                         DecisionOutcome outcome) {
  const auto& ledger = controller.ledger();
  return static_cast<std::size_t>(std::count_if(
      ledger.begin(), ledger.end(),
      [outcome](const ctl::DecisionRecord& r) { return r.outcome == outcome; }));
}

/// A controller wired to recording fake actuators and a flat QoE probe
/// (100 rendered, 0 late) — each test overrides what it exercises.
struct Harness {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics metrics_scope{&registry};
  sim::Simulator sim;
  ctl::MitigationController controller;
  std::vector<double> gains;
  std::vector<double> scales;
  std::vector<bool> grant_modes;
  std::vector<bool> pacing;

  explicit Harness(ctl::MitigationController::Config config = {})
      : controller(sim, config) {
    ctl::Actuators actuators;
    actuators.cc_mask_gain = [this](double g) { gains.push_back(g); };
    actuators.proactive_scale = [this](double s) { scales.push_back(s); };
    actuators.grant_mode = [this](bool on) { grant_modes.push_back(on); };
    actuators.pacing = [this](bool on) { pacing.push_back(on); };
    controller.set_actuators(std::move(actuators));
    controller.set_qoe_probe(
        [] { return std::pair<std::uint64_t, std::uint64_t>{100, 0}; });
  }

  void Inject(sim::Duration at, AnomalyKind kind, double confidence) {
    sim.ScheduleAt(kEpoch + at,
                   [this, kind, confidence] { controller.OnAnomaly(Verdict(kind, confidence)); });
  }
};

// --- the happy path: corroborated trigger -> actuation within budget ---

TEST(MitigationControllerTest, ActuatesOnCorroboratedTriggerWithinBudget) {
  Harness h;
  h.controller.Start();
  h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
  h.Inject(12ms, AnomalyKind::kHarqRtxInflation, 0.9);  // same knob, corroborates
  h.sim.RunFor(100ms);

  EXPECT_EQ(h.controller.actuations(), 1u);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kCcMaskGain), 1.0);
  ASSERT_EQ(h.gains.size(), 1u);
  EXPECT_DOUBLE_EQ(h.gains.front(), 1.0);
  // First trigger alone must not move the knob.
  EXPECT_EQ(CountOutcome(h.controller, DecisionOutcome::kBlockedHysteresis), 1u);
  EXPECT_EQ(CountOutcome(h.controller, DecisionOutcome::kActuated), 1u);
  // Sense-to-act is virtual-time exact: trigger at 12ms, decided on the
  // 20ms tick.
  EXPECT_EQ(h.controller.max_sense_to_act(), 8ms);
  EXPECT_LE(h.controller.max_sense_to_act(), h.controller.config().budget);
}

TEST(MitigationControllerTest, EachKnobMapsToItsActuator) {
  Harness h;
  h.controller.Start();
  h.Inject(5ms, AnomalyKind::kBsrGrantWait, 0.9);
  h.Inject(12ms, AnomalyKind::kBsrGrantWait, 0.9);
  h.Inject(15ms, AnomalyKind::kQueueBuildup, 0.9);
  h.Inject(22ms, AnomalyKind::kQueueBuildup, 0.9);
  h.Inject(25ms, AnomalyKind::kOverGranting, 0.9);
  h.Inject(32ms, AnomalyKind::kOverGranting, 0.9);
  h.sim.RunFor(100ms);

  EXPECT_EQ(h.controller.actuations(), 3u);
  ASSERT_EQ(h.grant_modes.size(), 1u);
  EXPECT_TRUE(h.grant_modes.front());
  ASSERT_EQ(h.pacing.size(), 1u);
  EXPECT_TRUE(h.pacing.front());
  // Proactive backoff: 1.0 * 0.75, clamped to [0.5, 1.0].
  ASSERT_EQ(h.scales.size(), 1u);
  EXPECT_DOUBLE_EQ(h.scales.front(), 0.75);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kProactiveScale), 0.75);
}

// --- confidence gate ---

TEST(MitigationControllerTest, LowConfidenceNeverActuates) {
  Harness h;
  h.controller.Start();
  h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.2);
  h.Inject(12ms, AnomalyKind::kDelaySpreadQuantization, 0.2);
  h.sim.RunFor(100ms);

  EXPECT_EQ(h.controller.actuations(), 0u);
  EXPECT_TRUE(h.gains.empty());
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kCcMaskGain), 0.0);
  EXPECT_EQ(CountOutcome(h.controller, DecisionOutcome::kBlockedConfidence), 2u);
  EXPECT_EQ(h.controller.guardrail_blocks(), 2u);
}

TEST(MitigationControllerTest, GateAnomalyPoisonsDecisionsUntilHoldExpires) {
  Harness h;
  h.controller.Start();
  // A telemetry-gap verdict means the input stream is suspect: refuse
  // even high-confidence triggers for the whole gate-hold window.
  h.Inject(1ms, AnomalyKind::kTelemetryGap, 0.9);
  h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.Inject(12ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  // Well past gate_hold (1s after the gap): the same evidence actuates.
  h.Inject(1100ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.Inject(1110ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.sim.RunFor(1300ms);

  EXPECT_EQ(CountOutcome(h.controller, DecisionOutcome::kBlockedConfidence), 2u);
  EXPECT_EQ(h.controller.actuations(), 1u);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kCcMaskGain), 1.0);
}

TEST(MitigationControllerTest, DegradedCorrelationRefusesUntilCleared) {
  Harness h;
  h.controller.NoteCorrelationDegraded(true);
  h.controller.Start();
  h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.Inject(12ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.sim.ScheduleAt(kEpoch + 50ms, [&h] { h.controller.NoteCorrelationDegraded(false); });
  h.Inject(60ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.Inject(70ms, AnomalyKind::kDelaySpreadQuantization, 0.95);
  h.sim.RunFor(200ms);

  EXPECT_EQ(CountOutcome(h.controller, DecisionOutcome::kBlockedConfidence), 2u);
  EXPECT_EQ(h.controller.actuations(), 1u);
}

// --- cooldown / anti-flap ---

TEST(MitigationControllerTest, CooldownBlocksFlapping) {
  Harness h;
  h.controller.Start();
  // First backoff: 1.0 -> 0.75.
  h.Inject(5ms, AnomalyKind::kOverGranting, 0.9);
  h.Inject(12ms, AnomalyKind::kOverGranting, 0.9);
  // Immediate re-trigger: corroborated again, but the knob moved 10-30ms
  // ago and the 500ms cooldown must hold it.
  h.Inject(30ms, AnomalyKind::kOverGranting, 0.9);
  h.Inject(40ms, AnomalyKind::kOverGranting, 0.9);
  h.sim.RunFor(300ms);
  EXPECT_EQ(h.controller.actuations(), 1u);
  EXPECT_GE(CountOutcome(h.controller, DecisionOutcome::kBlockedCooldown), 1u);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kProactiveScale), 0.75);

  // Past the cooldown, fresh corroboration backs off again: 0.75 -> 0.5625.
  h.Inject(600ms, AnomalyKind::kOverGranting, 0.9);
  h.Inject(610ms, AnomalyKind::kOverGranting, 0.9);
  h.sim.RunFor(400ms);
  EXPECT_EQ(h.controller.actuations(), 2u);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kProactiveScale), 0.75 * 0.75);
  ASSERT_EQ(h.scales.size(), 2u);
  EXPECT_DOUBLE_EQ(h.scales.back(), 0.75 * 0.75);
}

// --- fail-safe watchdogs ---

TEST(MitigationControllerTest, QoeWatchdogRevertsWhenLateFramesRise) {
  Harness h;
  // One frame per 10ms; every frame after t=20ms (the actuation tick)
  // arrives late — the post-actuation window is catastrophically worse
  // than the pre-actuation one.
  h.controller.set_qoe_probe([&h]() -> std::pair<std::uint64_t, std::uint64_t> {
    const std::int64_t us = (h.sim.Now() - kEpoch).count();
    const auto rendered = static_cast<std::uint64_t>(us / 10000);
    const auto late = static_cast<std::uint64_t>(us > 20000 ? (us - 20000) / 10000 : 0);
    return {rendered, late};
  });
  h.controller.Start();
  h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
  h.Inject(12ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
  h.sim.RunFor(1s);

  EXPECT_EQ(h.controller.actuations(), 1u);
  EXPECT_EQ(h.controller.reverts(), 1u);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kCcMaskGain), 0.0);
  // The actuator saw the move and the rollback.
  ASSERT_EQ(h.gains.size(), 2u);
  EXPECT_DOUBLE_EQ(h.gains[0], 1.0);
  EXPECT_DOUBLE_EQ(h.gains[1], 0.0);
  // The ledger records why.
  const auto& ledger = h.controller.ledger();
  const auto it = std::find_if(ledger.begin(), ledger.end(), [](const auto& r) {
    return r.outcome == DecisionOutcome::kReverted;
  });
  ASSERT_NE(it, ledger.end());
  EXPECT_EQ(std::string{it->why}, "qoe worsened post-actuation");
}

TEST(MitigationControllerTest, FeedSilenceFailsafeRevertsAndGates) {
  Harness h;
  h.controller.set_has_telemetry_feed(true);
  h.controller.Start();
  // A live feed for the first 100ms, then silence.
  for (int i = 1; i <= 10; ++i) {
    h.sim.ScheduleAt(kEpoch + i * 10ms, [&h] { h.controller.OnTelemetry(ran::TbRecord{}); });
  }
  h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
  h.Inject(12ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
  // Triggers arriving during the silence must be refused, not actuated.
  h.Inject(500ms, AnomalyKind::kBsrGrantWait, 0.95);
  h.Inject(510ms, AnomalyKind::kBsrGrantWait, 0.95);
  h.sim.RunFor(1s);

  EXPECT_EQ(h.controller.actuations(), 1u);
  EXPECT_EQ(h.controller.reverts(), 1u);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kCcMaskGain), 0.0);
  EXPECT_DOUBLE_EQ(h.controller.knob_value(Knob::kGrantMode), 0.0);
  EXPECT_GE(CountOutcome(h.controller, DecisionOutcome::kBlockedConfidence), 2u);
  const auto& ledger = h.controller.ledger();
  const auto it = std::find_if(ledger.begin(), ledger.end(), [](const auto& r) {
    return r.outcome == DecisionOutcome::kReverted;
  });
  ASSERT_NE(it, ledger.end());
  EXPECT_EQ(std::string{it->why}, "telemetry feed silent");
}

// --- refusal recording ---

TEST(MitigationControllerTest, MissingActuatorIsARecordedRefusal) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics metrics_scope{&registry};
  sim::Simulator sim;
  ctl::MitigationController controller{sim, {}};  // no actuators wired
  controller.set_qoe_probe([] { return std::pair<std::uint64_t, std::uint64_t>{0, 0}; });
  controller.Start();
  sim.ScheduleAt(kEpoch + 5ms, [&controller] {
    controller.OnAnomaly(Verdict(AnomalyKind::kQueueBuildup, 0.9));
  });
  sim.ScheduleAt(kEpoch + 12ms, [&controller] {
    controller.OnAnomaly(Verdict(AnomalyKind::kQueueBuildup, 0.9));
  });
  sim.RunFor(100ms);

  EXPECT_EQ(controller.actuations(), 0u);
  EXPECT_DOUBLE_EQ(controller.knob_value(Knob::kPacing), 0.0);
  EXPECT_EQ(CountOutcome(controller, DecisionOutcome::kBlockedNoActuator), 1u);
  EXPECT_GE(controller.guardrail_blocks(), 1u);
}

// --- determinism + config validation ---

TEST(MitigationControllerTest, LedgerDigestIsDeterministic) {
  const auto run = [] {
    Harness h;
    h.controller.Start();
    h.Inject(5ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
    h.Inject(12ms, AnomalyKind::kDelaySpreadQuantization, 0.9);
    h.Inject(40ms, AnomalyKind::kOverGranting, 0.3);
    h.Inject(700ms, AnomalyKind::kBsrGrantWait, 0.8);
    h.Inject(710ms, AnomalyKind::kBsrGrantWait, 0.8);
    h.sim.RunFor(1s);
    return std::pair{h.controller.LedgerDigest(), h.controller.ledger().size()};
  };
  const auto [digest_a, size_a] = run();
  const auto [digest_b, size_b] = run();
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(size_a, size_b);
  EXPECT_GT(size_a, 0u);
  EXPECT_NE(digest_a, 0xcbf29ce484222325ULL);  // not the empty-ledger basis
}

TEST(MitigationControllerTest, ConfigRejectsZeroBudgetAndClampsTick) {
  sim::Simulator sim;
  {
    sim::ScopedCheckThrow guard;
    ctl::MitigationController::Config config;
    config.budget = sim::Duration{0};
    EXPECT_THROW((ctl::MitigationController{sim, config}), sim::CheckViolation);
  }
  // A tick coarser than the budget would let triggers age past the
  // sense-to-act bound; the controller clamps it.
  ctl::MitigationController::Config config;
  config.budget = 20ms;
  config.tick = 100ms;
  ctl::MitigationController controller{sim, config};
  EXPECT_EQ(controller.config().tick, 20ms);
}

// --- the chaos-facing matrix: determinism across jobs and repeats ---

std::vector<fault::ChaosScenario> GuardedScenarios() {
  std::vector<fault::ChaosScenario> out;
  for (const fault::ChaosScenario& s : fault::BuiltinScenarios()) {
    if (s.expect.mitigation_guarded) out.push_back(s);
  }
  return out;
}

constexpr fault::ChaosRunOptions kMitigate{.mitigate = true};

std::string MatrixJson(fault::ChaosMatrixResult result) {
  std::ostringstream os;
  // jobs written as 0 so serializations from different job counts are
  // directly byte-comparable.
  result.jobs = 0;
  fault::WriteChaosJson(os, result);
  return os.str();
}

TEST(MitigationMatrixTest, ByteIdenticalAcrossJobCounts) {
  const auto scenarios = GuardedScenarios();
  ASSERT_GE(scenarios.size(), 2u);  // lying_telemetry + actuate_during_handover

  const auto seq = fault::RunChaosMatrix(scenarios, 42, 2, 1, kMitigate);
  const auto par = fault::RunChaosMatrix(scenarios, 42, 2, 8, kMitigate);
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (std::size_t i = 0; i < seq.outcomes.size(); ++i) {
    EXPECT_EQ(seq.outcomes[i].digest, par.outcomes[i].digest)
        << seq.outcomes[i].scenario << " seed " << seq.outcomes[i].seed;
    EXPECT_EQ(seq.outcomes[i].mitigation().decisions, par.outcomes[i].mitigation().decisions);
  }
  EXPECT_EQ(MatrixJson(seq), MatrixJson(par));
}

TEST(MitigationMatrixTest, GuardedScenariosEngageGuardrailsAndHoldQoe) {
  const auto scenarios = GuardedScenarios();
  ASSERT_GE(scenarios.size(), 2u);

  const auto result = fault::RunChaosMatrix(scenarios, 42, 2, 2, kMitigate);
  ASSERT_EQ(result.outcomes.size(), scenarios.size() * 2);
  for (const fault::ChaosOutcome& o : result.outcomes) {
    EXPECT_TRUE(o.ok()) << o.scenario << " seed " << o.seed << ": " << o.failure;
    const fault::MitigationEvidence& e = o.mitigation();
    // Hostile telemetry must visibly hit a guardrail: a refusal or a
    // fail-safe revert, never a silent pass-through.
    EXPECT_GT(e.guardrail_blocks + e.reverts, 0u) << o.scenario;
    EXPECT_TRUE(e.budget_ok) << o.scenario << ": " << e.max_sense_to_act_us << "us";
    EXPECT_TRUE(e.qoe_ok) << o.scenario;
  }
  EXPECT_TRUE(result.all_ok());
}

TEST(MitigationMatrixTest, RepeatedRunsAreByteIdentical) {
  const auto scenarios = GuardedScenarios();
  ASSERT_FALSE(scenarios.empty());
  const auto a = fault::RunChaosMatrix(scenarios, 42, 1, 2, kMitigate);
  const auto b = fault::RunChaosMatrix(scenarios, 42, 1, 2, kMitigate);
  EXPECT_EQ(MatrixJson(a), MatrixJson(b));
}

// --- checkpoint/restore: the ledger joins the byte-identity surface ---

SupervisorOptions FastOptions() {
  SupervisorOptions options;
  options.watchdog = false;
  return options;
}

RunPlan MitigatedPlan(ctl::MitigationRuntime& runtime, std::uint64_t seed) {
  RunPlan plan;
  plan.config.seed = seed;
  plan.config.cross_traffic = net::CapacityTrace{16e6};
  plan.config.cross_burstiness = 0.35;
  plan.config.channel = ran::ChannelModel::FadingRadio();
  plan.duration = 2s;
  plan.checkpoint_every = 250ms;
  runtime.InstallConfigHooks(plan.config);
  plan.trace_sink = runtime.sink();
  plan.on_session = [&runtime](sim::Simulator& sim, app::Session& session) {
    runtime.BindSession(sim, session);
  };
  plan.report_appendix = [&runtime](std::ostream& os) { runtime.RenderLedger(os); };
  return plan;
}

TEST(MitigationCheckpointTest, LedgerReplaysByteIdenticallyAcrossKillRestore) {
  // Reference: one uninterrupted checkpointing run under mitigation.
  ctl::MitigationRuntime runtime_a;
  CheckpointingDriver driver{MitigatedPlan(runtime_a, 7)};
  const resilience::RunOutcome base = driver.Run();
  const std::uint64_t ledger_a = runtime_a.controller()->LedgerDigest();
  ASSERT_GT(runtime_a.controller()->ledger().size(), 0u)
      << "scenario produced no decisions — the identity check would be vacuous";

  // Same plan, supervised, killed mid-run: the restore replays from the
  // last checkpoint with a fresh controller and must land on the same
  // ledger, final digest and rendered report (which embeds the ledger
  // via report_appendix).
  ctl::MitigationRuntime runtime_b;
  Supervisor supervisor{MitigatedPlan(runtime_b, 7), FastOptions()};
  ProcessFaultSpec faults;
  faults.kill_at = kEpoch + 1200ms;
  const resilience::SupervisedOutcome sup = supervisor.Run(faults);

  ASSERT_TRUE(sup.completed) << sup.last_error;
  EXPECT_EQ(sup.crashes, 1);
  EXPECT_TRUE(sup.outcome.restored);
  EXPECT_EQ(sup.outcome.final_digest, base.final_digest);
  EXPECT_EQ(sup.outcome.report_digest, base.report_digest);
  EXPECT_EQ(sup.outcome.report, base.report);
  EXPECT_EQ(runtime_b.controller()->LedgerDigest(), ledger_a);
}

}  // namespace
}  // namespace athena
