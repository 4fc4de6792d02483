#include "fault/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "media/qoe.hpp"
#include "mitigation/control/runtime.hpp"
#include "obs/live/detectors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/overload.hpp"
#include "resilience/supervisor.hpp"
#include "sim/barrier.hpp"
#include "sim/random.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

namespace athena::fault {
namespace {

using namespace std::chrono_literals;

/// Post-run event-queue ceiling. A stopped 2 s session leaves at most a
/// handful of cancelled periodic timers behind; anything in the tens of
/// thousands means a component kept scheduling against a dead session.
constexpr std::size_t kQueueDepthBound = 65'536;

/// Appends a scenario to the catalog and returns it for further shaping.
ChaosScenario& Add(std::vector<ChaosScenario>& all, std::string name,
                   std::string description, ChaosExpectation expect) {
  ChaosScenario& s = all.emplace_back();
  s.name = std::move(name);
  s.description = std::move(description);
  s.expect = expect;
  return s;
}

/// Appends a world scenario: `ues` UEs on 4 cells and 2 threaded shards,
/// every 8th UE handing over.
void AddWorld(std::vector<ChaosScenario>& all, std::string name, std::string description,
              WorldContract contract, std::size_t ues, sim::Duration duration) {
  ChaosScenario& s = Add(all, std::move(name), std::move(description), {});
  s.world = contract;
  s.duration = duration;
  s.shape = {.ues = ues, .cells = 4, .shards = 2, .threaded = true, .handover_every = 8};
}

}  // namespace

std::vector<ChaosScenario> BuiltinScenarios() {
  std::vector<ChaosScenario> all;

  // 1. The control: the contract cuts both ways — a clean feed must
  // produce *zero* degradation signals, or every report is noise.
  Add(all, "clean_baseline", "no faults; health must be pristine and telemetry_gap silent",
      {});

  // 2. Random record loss: the sniffer misses DCI decodes under load.
  {
    auto& s = Add(all, "telemetry_drop",
                  "40% of TbRecords vanish at random (sniffer decode misses)",
                  {.degraded = true, .telemetry_gap_anomaly = true});
    s.plan.For(Stream::kTelemetry).drop = 0.4;
  }

  // 3. Burst outage: sniffer crash + restart mid-call.
  {
    auto& s = Add(all, "telemetry_burst_outage",
                  "telemetry silent for [700ms, 1300ms) (sniffer crash/restart)",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true});
    s.plan.For(Stream::kTelemetry).outage_begin = sim::kEpoch + 700ms;
    s.plan.For(Stream::kTelemetry).outage_end = sim::kEpoch + 1300ms;
  }

  // 4. Truncation: the collector died before the run finished.
  {
    auto& s = Add(all, "telemetry_truncate",
                  "telemetry ends at 55% of the run (collector died early)",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true});
    s.plan.For(Stream::kTelemetry).truncate_after_fraction = 0.55;
  }

  // 5. Duplicates + bounded reordering: a lossy transport re-delivering
  // and shuffling the telemetry export stream.
  {
    auto& s = Add(all, "telemetry_dup_reorder",
                  "25% duplicated, 30% reordered (depth 12) TbRecords",
                  {.degraded = true, .telemetry_flagged = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.duplicate = 0.25;
    spec.reorder = 0.3;
    spec.reorder_depth = 12;
  }

  // 6. Collection latency: records timestamped late by a jittery export
  // path, landing behind their successors.
  {
    auto& s = Add(all, "telemetry_delay",
                  "30% of TbRecords timestamped 2-30ms late (export latency)",
                  {.degraded = true, .telemetry_flagged = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.delay = 0.3;
    spec.delay_min = 2ms;
    spec.delay_max = 30ms;
  }

  // 7. Field corruption: sizes, HARQ metadata and CRC verdicts scrambled.
  {
    auto& s = Add(all, "telemetry_corrupt",
                  "25% of TbRecords have one field scrambled (decode errors)",
                  {.degraded = true});
    s.plan.For(Stream::kTelemetry).corrupt = 0.25;
  }

  // 8. Capture-side duplicates + reordering: pcap taps re-deliver.
  {
    auto& s = Add(all, "capture_dup_reorder",
                  "core+receiver captures: 20% duplicated, 25% reordered",
                  {.degraded = true});
    for (Stream st : {Stream::kCoreCapture, Stream::kReceiverCapture}) {
      auto& spec = s.plan.For(st);
      spec.duplicate = 0.2;
      spec.reorder = 0.25;
      spec.reorder_depth = 8;
    }
  }

  // 9. Clock step: the sender host NTP-steps backwards mid-call, so its
  // capture timestamps fold over themselves.
  {
    auto& s = Add(all, "capture_clock_step",
                  "sender capture clock steps -20ms at t=1s (NTP re-sync)",
                  {.degraded = true});
    auto& spec = s.plan.For(Stream::kSenderCapture);
    spec.clock_step = -20ms;
    spec.clock_step_at = sim::kEpoch + 1s;
  }

  // 10. Clock drift below the detection floor: the pipeline must absorb
  // it without crashing, but flagging it is not required.
  {
    auto& s = Add(all, "telemetry_clock_drift",
                  "telemetry clock drifts 400ppm (skewed oscillator; tolerated)",
                  {.tolerated = true});
    s.plan.For(Stream::kTelemetry).clock_drift_ppm = 400.0;
  }

  // 11. Process death mid-run: the collector is killed at a seed-derived
  // virtual time and restored from its latest checkpoint. The restored
  // run's final *and* report digests must be byte-identical to an
  // uninterrupted run — the checkpoint/restore determinism contract,
  // exercised end to end under the supervisor.
  {
    auto& s = Add(all, "kill_restore_midrun",
                  "process killed at a seed-derived virtual time, restored from "
                  "checkpoint; digests must match an uninterrupted run",
                  {.restore_identical = true});
    s.supervised = true;
    s.plan.process.max_kills = 1;  // kill point derived per seed at run time
  }

  // 12. Telemetry flood against a hard byte budget: a misbehaving
  // collector re-reports everything ~10x with jittered timestamps. The
  // governor must keep the input bounded, shed loudly, raise the
  // overload anomaly, and correlation of the surviving records must
  // still succeed.
  {
    auto& s = Add(all, "overload_flood",
                  "10x telemetry/capture flood vs a hard byte budget: bounded "
                  "memory, loud shed counters, correlation survives",
                  {.degraded = true, .bounded_memory = true});
    s.plan.For(Stream::kTelemetry).flood_factor = 10.0;
    s.plan.For(Stream::kCoreCapture).flood_factor = 10.0;
    // ~2.3x the clean input, ~0.4x the flooded one: tiers 2-3 alone
    // cannot absorb the flood, so the hard cap must engage (loudly).
    s.budget.input_bytes = 256 * 1024;
  }

  // 13. Lying telemetry: the feed keeps flowing but a quarter of it is
  // wrong (scrambled fields) and late. An online mitigation loop that
  // trusts it would actuate on fiction — the guardrail contract demands
  // the confidence gate block (or the watchdog revert) at least once.
  {
    auto& s = Add(all, "lying_telemetry",
                  "30% of TbRecords corrupted + 20% timestamped late: the "
                  "control plane must refuse or roll back, never act blindly",
                  {.degraded = true, .mitigation_guarded = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.corrupt = 0.3;
    spec.delay = 0.2;
    spec.delay_min = 2ms;
    spec.delay_max = 25ms;
  }

  // 14. Detector outage during actuation: telemetry goes dark over a
  // handover-shaped window right when the controller is likely to be
  // holding knobs away from baseline, then the restarted feed steps its
  // clock. The feed-silence fail-safe must revert to baseline (or the
  // gate must hold fire) rather than steering on stale evidence.
  {
    auto& s = Add(all, "actuate_during_handover",
                  "telemetry dark for [800ms, 1300ms) with a -15ms clock step "
                  "on re-attach: fail-safe must revert/hold, not steer blind",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true, .mitigation_guarded = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.outage_begin = sim::kEpoch + 800ms;
    spec.outage_end = sim::kEpoch + 1300ms;
    spec.clock_step = -15ms;
    spec.clock_step_at = sim::kEpoch + 1300ms;
  }

  // 15. Everything at once, under cross traffic.
  {
    auto& s = Add(all, "everything_hostile",
                  "compound faults on all streams under 12 Mbps cross traffic",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true});
    auto& tele = s.plan.For(Stream::kTelemetry);
    tele.drop = 0.2;
    tele.duplicate = 0.1;
    tele.reorder = 0.15;
    tele.corrupt = 0.05;
    tele.outage_begin = sim::kEpoch + 500ms;
    tele.outage_end = sim::kEpoch + 900ms;
    for (Stream st :
         {Stream::kSenderCapture, Stream::kCoreCapture, Stream::kReceiverCapture}) {
      auto& spec = s.plan.For(st);
      spec.duplicate = 0.1;
      spec.reorder = 0.1;
    }
    s.cross_mbps = 12.0;
  }

  // 16-18. The world: the same chaos against the sharded multi-cell
  // engine, handovers interleaved, judged on the population it hit.
  AddWorld(all, "world_cell_outage",
           "cell 0 dark from 25% of the run to its end: the cell's own "
           "population shows higher uplink OWD, conservation holds",
           WorldContract::kCellOutage, 24, 400ms);
  AddWorld(all, "world_shard_crash_restore",
           "shard 1 dies at a seed-derived window, restored from a world "
           "snapshot; digest + FleetReport match an uninterrupted run",
           WorldContract::kShardCrashRestore, 16, 300ms);
  AddWorld(all, "world_cell_quarantine",
           "crashes blamed on one cell exhaust its restart budget: the "
           "cell is quarantined, its UEs evacuated, the ledger balanced",
           WorldContract::kCellQuarantine, 16, 300ms);

  return all;
}

app::SessionConfig ScenarioSessionConfig(const ChaosScenario& scenario, std::uint64_t seed) {
  app::SessionConfig config;
  config.seed = seed;
  if (scenario.cross_mbps > 0.0) {
    config.cross_traffic = net::CapacityTrace{scenario.cross_mbps * 1e6};
    config.cross_burstiness = 0.35;
  }
  return config;
}

const ChaosScenario* FindScenario(const std::vector<ChaosScenario>& scenarios,
                                  std::string_view name) {
  for (const auto& s : scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

/// Replays the impaired telemetry + core-capture streams through a fresh
/// detector bank in timestamp order — the live engine's view of the same
/// impaired evidence the correlator consumed. ICMP records are skipped:
/// the core's own probes never crossed the RAN, so they are not
/// deliveries.
void ReplayIntoBank(const core::CorrelatorInput& input, obs::live::DetectorBank& bank) {
  struct Event {
    sim::TimePoint t;
    bool is_tb = false;
    std::size_t index = 0;
  };
  std::vector<Event> events;
  events.reserve(input.telemetry.size() + input.core.size());
  for (std::size_t i = 0; i < input.telemetry.size(); ++i) {
    events.push_back({input.telemetry[i].slot_time, true, i});
  }
  for (std::size_t i = 0; i < input.core.size(); ++i) {
    if (input.core[i].icmp.has_value()) continue;
    events.push_back({input.core[i].local_ts, false, i});
  }
  // TB before delivery on ties: a TB observed in the slot that delivered
  // a packet should not look like silence.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.is_tb != b.is_tb) return a.is_tb;
    return a.index < b.index;
  });

  for (const Event& ev : events) {
    if (ev.is_tb) {
      const ran::TbRecord& tb = input.telemetry[ev.index];
      bank.OnTb({.slot_time = tb.slot_time,
                 .tbs_bytes = tb.tbs_bytes,
                 .used_bytes = tb.used_bytes,
                 .harq_round = tb.harq_round,
                 .crc_ok = tb.crc_ok,
                 .requested_grant = tb.grant == ran::GrantType::kRequested});
    } else {
      const net::CaptureRecord& r = input.core[ev.index];
      bank.OnDelivery({.packet_id = r.packet_id,
                       .enqueued_at = r.local_ts,
                       .delivered_at = r.local_ts,
                       .bytes = r.size_bytes});
    }
  }
}

/// Records the first violated check; later ones only add to the evidence.
void Fail(ChaosOutcome& out, const std::string& why) {
  if (out.failure.empty()) out.failure = why;
}

// --- plug-in 1: the plain session contract ---

/// Session → impair → bound → correlate → detector replay, then the
/// degradation contract.
void RunPlainSession(const ChaosScenario& scenario, std::uint64_t seed, ChaosOutcome& out) {
  SessionEvidence& ev = out.evidence.emplace<SessionEvidence>();
  sim::Simulator simulator;
  // A per-run registry so the degradation gauges the correlator and
  // injector publish are inspectable (and so sweep workers never share).
  obs::MetricsRegistry registry;
  obs::ScopedMetrics metrics_scope{&registry};

  app::Session session{simulator, ScenarioSessionConfig(scenario, seed)};
  session.Run(scenario.duration);

  ev.events_executed = simulator.events_executed();
  ev.time_monotone =
      simulator.Now() >= sim::kEpoch + scenario.duration && ev.events_executed > 0;
  ev.queues_bounded = simulator.queue_depth() <= kQueueDepthBound;

  // Impair the recorded feeds exactly as a deployment would see them.
  core::CorrelatorInput input = session.BuildCorrelatorInput();
  FaultInjector injector{scenario.plan, seed};
  injector.Apply(Stream::kTelemetry, input.telemetry);
  injector.Apply(Stream::kSenderCapture, input.sender);
  injector.Apply(Stream::kCoreCapture, input.core);
  injector.Apply(Stream::kReceiverCapture, input.receiver);
  ev.faults_injected = injector.stats().total_faults();
  injector.stats().PublishMetrics();

  // Overload governor: bound the impaired input before anything
  // downstream sees it, exactly as the resilient pipeline does.
  if (scenario.budget.any()) {
    const resilience::ShedStats shed = resilience::BoundInput(input, scenario.budget);
    shed.PublishMetrics();
    ev.shed_total = shed.total();
    ev.shed_capped = shed.capped();
    ev.bounded_bytes = resilience::InputBytes(input);
  }

  InputDigest digest;
  digest.Mix(seed);
  digest.Mix(input.telemetry);
  digest.Mix(input.sender);
  digest.Mix(input.core);
  digest.Mix(input.receiver);
  out.digest = digest.value();

  const core::CrossLayerDataset data = core::Correlator::Correlate(input);
  ev.health_degraded = data.health.degraded();
  ev.telemetry_gaps = data.health.telemetry.gaps;
  ev.telemetry_repairs =
      data.health.telemetry.duplicates_dropped + data.health.telemetry.out_of_order;
  ev.uncovered_packets = data.health.uncovered_packets;
  ev.unmatched_tb_bytes = data.unmatched_tb_bytes;
  ev.mean_match_confidence = data.health.mean_match_confidence;
  ev.packets_correlated = data.packets.size();

  // The live engine's verdict on the same impaired evidence.
  obs::live::DetectorBank bank;
  ReplayIntoBank(input, bank);
  if (ev.shed_total > 0) {
    bank.OnShed({.t = simulator.Now(),
                 .shed_total = static_cast<double>(ev.shed_total),
                 .shed_capped = static_cast<double>(ev.shed_capped)});
  }
  ev.anomalies_total = bank.anomaly_count();
  ev.telemetry_gap_anomalies = bank.anomaly_count(obs::live::AnomalyKind::kTelemetryGap);
  ev.overload_anomalies = bank.anomaly_count(obs::live::AnomalyKind::kOverload);

  if (out.summary) {
    // The fleet digest of what this run observed: the (impaired)
    // correlated dataset, the receiver-side QoE and the live verdicts.
    *out.summary = obs::fleet::SummarizeSession({.dataset = &data,
                                                 .qoe = &session.qoe(),
                                                 .detectors = &bank,
                                                 .scenario = scenario.name,
                                                 .seed = seed});
  }

  // Degradation must be *reported*, not just computed: the gauges the
  // rest of the stack scrapes have to agree with the dataset verdict.
  const bool gauges_agree =
      registry.GaugeValue("core.degraded") == (ev.health_degraded ? 1.0 : 0.0);

  out.survived = true;

  // --- contract evaluation ---
  if (!ev.time_monotone) Fail(out, "virtual time did not reach the configured end");
  if (!ev.queues_bounded) Fail(out, "event queue not bounded after the run");
  bool met = true;
  const auto expect = [&](bool holds, const char* why) {
    met = met && holds;
    if (!holds) Fail(out, why);
  };
  expect(gauges_agree, "core.degraded gauge disagrees with the dataset health");

  const ChaosExpectation& want = scenario.expect;
  if (want.tolerated) {
    // Hard invariants only.
  } else if (!want.degraded && !want.telemetry_gap_anomaly && !want.telemetry_flagged) {
    // Strict clean contract.
    expect(ev.faults_injected == 0, "clean scenario injected faults");
    expect(!ev.health_degraded, "clean run reported degradation");
    expect(ev.telemetry_gap_anomalies == 0, "clean run raised telemetry_gap");
  } else {
    expect(ev.faults_injected > 0, "lossy plan injected nothing");
    expect(!want.degraded || ev.health_degraded,
           "degradation expected but health reports clean");
    expect(!want.telemetry_gap_anomaly || ev.telemetry_gap_anomalies > 0,
           "telemetry_gap anomaly expected but the detector stayed silent");
    expect(!want.telemetry_flagged || ev.telemetry_gaps > 0 || ev.telemetry_repairs > 0,
           "telemetry stream expected flagged but shows no gaps/repairs");
    if (want.bounded_memory) {
      expect(ev.shed_total > 0, "budget set but the governor shed nothing");
      expect(scenario.budget.input_bytes == 0 ||
                 ev.bounded_bytes <= scenario.budget.input_bytes,
             "bounded input still exceeds its byte budget");
      expect(ev.overload_anomalies > 0, "overload detector stayed silent while shedding");
      expect(ev.packets_correlated > 0, "no packets correlated from the bounded input");
    }
    ev.silently_degraded =
        ev.faults_injected > 0 && !ev.health_degraded && ev.anomalies_total == 0;
    if (ev.silently_degraded) Fail(out, "faults injected but every signal stayed silent");
  }
  ev.contract_met = met;
}

// --- plug-in 2: the supervised session contract ---

/// Runs the plan under the resilience Supervisor with an injected process
/// kill, then runs the same plan uninterrupted and demands byte-identical
/// final + report digests.
void RunSupervisedSession(const ChaosScenario& scenario, std::uint64_t seed,
                          ChaosOutcome& out) {
  SessionEvidence& ev = out.evidence.emplace<SessionEvidence>();
  // A per-run registry, as in the plain path: supervision gauges are
  // inspectable and sweep workers never share.
  obs::MetricsRegistry registry;
  obs::ScopedMetrics metrics_scope{&registry};

  resilience::RunPlan plan;
  plan.config = ScenarioSessionConfig(scenario, seed);
  plan.duration = scenario.duration;
  plan.checkpoint_every = 250ms;
  plan.budget = scenario.budget;

  resilience::ProcessFaultSpec faults = scenario.plan.process;
  if (!faults.any()) {
    // Seed-derived kill point in the middle 60% of the run, so every
    // seed in the matrix dies (and restores) somewhere different.
    const auto span = static_cast<std::uint64_t>(scenario.duration.count());
    const std::uint64_t offset = span / 5 + sim::DeriveSeed(seed, 0x6B) % (3 * span / 5);
    faults.kill_at = sim::kEpoch + sim::Duration{static_cast<std::int64_t>(offset)};
  }

  resilience::SupervisorOptions options;
  options.watchdog = false;  // keep matrix workers thread-free
  resilience::Supervisor supervisor{plan, options};
  const resilience::SupervisedOutcome sup = supervisor.Run(faults);

  ev.kills = sup.crashes;
  ev.restores = sup.restores;
  out.survived = sup.completed;
  ev.time_monotone = sup.completed;
  ev.queues_bounded = true;  // the driver owns and drains its simulator
  ev.events_executed = sup.outcome.events_executed;
  ev.packets_correlated = sup.outcome.packets_correlated;
  out.digest = sup.outcome.final_digest;
  ev.shed_total = sup.outcome.shed.total();
  ev.shed_capped = sup.outcome.shed.capped();

  // The determinism oracle: the identical plan, never killed.
  resilience::CheckpointingDriver reference{plan};
  const resilience::RunOutcome ref = reference.Run();
  ev.digest_match = sup.completed && sup.outcome.final_digest == ref.final_digest &&
                    sup.outcome.report_digest == ref.report_digest;

  if (!sup.completed) {
    Fail(out, sup.last_error.empty() ? std::string{"supervised run never completed"}
                                     : sup.last_error);
  }
  ev.contract_met = sup.completed;
  if (scenario.expect.restore_identical) {
    if (ev.kills == 0) Fail(out, "kill point never fired");
    if (ev.restores == 0) Fail(out, "run was never restored from a checkpoint");
    if (!ev.digest_match) Fail(out, "restored digests diverge from the uninterrupted run");
    ev.contract_met = ev.contract_met && ev.kills > 0 && ev.restores > 0 && ev.digest_match;
  }
  if (out.summary) {
    // The process faults only kill the *driver*; the simulated session is
    // untouched. Summarize the same (config, seed) run plainly —
    // deterministic and identical to what the supervised run computed.
    ChaosOutcome plain;
    plain.summary.emplace();
    RunPlainSession(scenario, seed, plain);
    out.summary = std::move(plain.summary);
  }
}

// --- plug-in 3: the mitigation on/off pair ---

/// Stochastic slack for the never-regress checks: two runs of the same
/// scenario under different control paths jitter by this much without
/// either being "worse".
constexpr double kLateFractionSlack = 0.08;
constexpr double kSsimSlack = 0.05;
constexpr double kAudioLossSlack = 0.05;
constexpr double kAudioMosSlack = 0.30;

MitigationQoe ExtractQoe(const media::QoeCollector& qoe) {
  MitigationQoe out;
  out.ssim_mean = qoe.Ssim().Mean();
  out.frames_rendered = qoe.video_frames_rendered();
  out.late_fraction = static_cast<double>(qoe.late_frames()) /
                      static_cast<double>(std::max<std::uint64_t>(1, out.frames_rendered));
  out.audio_loss = qoe.AudioLossFraction();
  out.audio_mos = qoe.AudioMos();
  return out;
}

/// Builds the live feed interposer from the scenario's offline telemetry
/// fault spec: the same drop/corrupt/outage/clock faults the offline
/// injector applies to the recorded stream, replayed record-by-record
/// against the control plane's view. Deterministic: one Rng seeded from
/// (seed, stream) and a single-threaded record order.
mitigation::control::MitigationRuntime::FeedFault MakeFeedFault(
    const FaultSpec& spec, std::uint64_t seed) {
  auto rng = std::make_shared<sim::Rng>(sim::DeriveSeed(seed, 0x4D17));
  return [spec, rng](const ran::TbRecord& tb) -> std::optional<ran::TbRecord> {
    ran::TbRecord record = tb;
    if (spec.outage_begin != spec.outage_end &&
        record.slot_time >= spec.outage_begin && record.slot_time < spec.outage_end) {
      return std::nullopt;
    }
    if (spec.drop > 0.0 && rng->Bernoulli(spec.drop)) return std::nullopt;
    if (spec.corrupt > 0.0 && rng->Bernoulli(spec.corrupt)) {
      switch (rng->UniformInt(0, 3)) {
        case 0:
          record.tbs_bytes = record.tbs_bytes * 7 + 1;
          break;
        case 1:
          record.used_bytes = record.tbs_bytes + 1500;
          break;
        case 2:
          record.harq_round = static_cast<std::uint8_t>(record.harq_round + 3);
          break;
        default:
          record.crc_ok = !record.crc_ok;
          break;
      }
    }
    if (spec.clock_step.count() != 0 && record.slot_time >= spec.clock_step_at) {
      record.slot_time = record.slot_time + spec.clock_step;
    }
    if (spec.delay > 0.0 && rng->Bernoulli(spec.delay)) {
      record.slot_time = record.slot_time + rng->UniformDuration(spec.delay_min, spec.delay_max);
    }
    return record;
  };
}

/// Runs the session plain and under the closed loop, then judges the QoE
/// delta, the sense-to-act budget and guardrail engagement:
///   * every scenario: mitigation must hold or improve QoE (never regress
///     beyond the stochastic slack);
///   * mitigation_guarded scenarios (lying / vanishing telemetry): the
///     guardrails must visibly engage (>= 1 block or revert in the
///     ledger) — acting blindly on bad telemetry is the failure.
void RunMitigationPair(const ChaosScenario& scenario, std::uint64_t seed,
                       const ChaosRunOptions& options, ChaosOutcome& out) {
  MitigationEvidence& ev = out.evidence.emplace<MitigationEvidence>();
  // Leg 1: the un-mitigated reference. Per-leg metrics registries keep
  // the comparison (and matrix workers) isolated.
  {
    obs::MetricsRegistry registry;
    obs::ScopedMetrics metrics_scope{&registry};
    sim::Simulator simulator;
    app::Session session{simulator, ScenarioSessionConfig(scenario, seed)};
    session.Run(scenario.duration);
    ev.baseline = ExtractQoe(session.qoe());
  }

  // Leg 2: the same session under the closed loop, with the scenario's
  // telemetry faults applied live to the control plane's feed.
  {
    obs::MetricsRegistry registry;
    obs::ScopedMetrics metrics_scope{&registry};
    sim::Simulator simulator;

    mitigation::control::MitigationRuntime::Options runtime_options;
    runtime_options.controller.budget = options.budget;
    mitigation::control::MitigationRuntime runtime{runtime_options};

    app::SessionConfig config = ScenarioSessionConfig(scenario, seed);
    runtime.InstallConfigHooks(config);
    app::Session session{simulator, config};
    runtime.BindSession(simulator, session);
    runtime.set_feed_fault(MakeFeedFault(scenario.plan.For(Stream::kTelemetry), seed));

    {
      obs::ScopedTraceSink trace_scope{runtime.sink()};
      session.Run(scenario.duration);
    }

    ev.mitigated = ExtractQoe(session.qoe());
    if (out.summary) {
      // The fleet digest of the mitigated leg: the correlated dataset,
      // receiver-side QoE, and the live detector verdicts that drove
      // the controller.
      const core::CrossLayerDataset data =
          core::Correlator::Correlate(session.BuildCorrelatorInput());
      *out.summary = obs::fleet::SummarizeSession({.dataset = &data,
                                                   .qoe = &session.qoe(),
                                                   .detectors = &runtime.live()->bank(),
                                                   .scenario = scenario.name,
                                                   .seed = seed});
    }
    const auto* controller = runtime.controller();
    ev.decisions = controller->ledger().size();
    ev.actuations = controller->actuations();
    ev.reverts = controller->reverts();
    ev.guardrail_blocks = controller->guardrail_blocks();
    out.digest = controller->LedgerDigest();
    ev.max_sense_to_act_us = controller->max_sense_to_act().count();
    ev.budget_ok = controller->max_sense_to_act() <= options.budget;
  }

  out.survived = true;
  if (!ev.budget_ok) Fail(out, "sense-to-act latency exceeded the budget");

  // Never-regress: mitigation on must not be meaningfully worse than
  // mitigation off on any facet, under any scenario.
  ev.qoe_ok = ev.mitigated.late_fraction <= ev.baseline.late_fraction + kLateFractionSlack &&
              ev.mitigated.ssim_mean >= ev.baseline.ssim_mean - kSsimSlack &&
              ev.mitigated.audio_loss <= ev.baseline.audio_loss + kAudioLossSlack &&
              ev.mitigated.audio_mos >= ev.baseline.audio_mos - kAudioMosSlack;
  if (!ev.qoe_ok) Fail(out, "mitigated QoE regressed beyond slack vs baseline");

  ev.guarded_ok =
      !scenario.expect.mitigation_guarded || ev.guardrail_blocks + ev.reverts > 0;
  if (!ev.guarded_ok) {
    Fail(out, "guardrails never engaged on a scenario with hostile telemetry");
  }
}

// --- plug-in 4: the world contracts ---

/// The world scenarios' fixed fault coordinates. Each world's FleetReport
/// groups its population as "world-chaos/cell<initial cell>".
constexpr std::size_t kOutageCell = 0;
constexpr std::size_t kCrashShard = 1;
constexpr const char* kWorldGroup = "world-chaos";

world::WorldConfig ScenarioWorldConfig(const ChaosScenario& scenario, std::uint64_t seed) {
  world::WorldConfig config;
  config.seed = seed;
  config.ues = scenario.shape.ues;
  config.cells = scenario.shape.cells;
  config.shards = scenario.shape.shards;
  config.threaded = scenario.shape.threaded;
  config.duration = scenario.duration;
  config.handover_every = scenario.shape.handover_every;
  config.scenario = kWorldGroup;
  return config;
}

/// Supervises `config` with shard kCrashShard dying at `crash_window`
/// (0 = seed-derived) up to `max_kills` times. Snapshots are taken every
/// eighth of the run, so at least one precedes any seed-derived crash.
resilience::WorldSupervisedOutcome SuperviseWorld(world::WorldConfig config,
                                                  std::uint64_t crash_window, int max_kills,
                                                  int cell_restart_budget) {
  const auto schedule = sim::WindowSchedule::Cover(
      sim::kEpoch, sim::kEpoch + config.duration, config.link_latency);
  resilience::WorldSupervisorOptions options;
  options.checkpoint_every_windows = std::max<std::uint64_t>(1, schedule.windows / 8);
  options.max_restarts = 4;
  options.cell_restart_budget = cell_restart_budget;
  resilience::WorldFaultSpec faults;
  faults.crash_shard = kCrashShard;
  faults.crash_window = crash_window;
  faults.max_kills = max_kills;
  resilience::WorldSupervisor supervisor(std::move(config), options);
  return supervisor.Run(faults);
}

void CheckConservation(ChaosOutcome& out, const char* which, const world::WorldResult& r) {
  if (!r.conservation_ok) {
    Fail(out, std::string(which) + " violated conservation: " + r.conservation_error);
  }
}

/// Determinism under fault: a same-seed repeat lands on the same bytes.
void CheckRepeatable(ChaosOutcome& out, const char* which, const world::WorldResult& first,
                     const world::WorldResult& repeat) {
  if (repeat.digest != first.digest) {
    Fail(out, std::string(which) + " digest not reproducible across same-seed runs");
  }
  if (repeat.fleet_json != first.fleet_json) {
    Fail(out, std::string(which) + " FleetReport not byte-identical across same-seed runs");
  }
}

/// A population group's mean of `metric`; 0 when the group has no samples.
double GroupMean(const obs::fleet::ScenarioReport& group, obs::fleet::FleetMetric metric) {
  const auto it = group.metrics.find(obs::fleet::ToString(metric));
  return it == group.metrics.end() ? 0.0 : it->second.mean;
}

void CheckCellOutage(const world::WorldConfig& base, ChaosOutcome& out, WorldEvidence& ev) {
  // The cell stays dark to the end of the run, so its backlog cannot
  // silently drain.
  world::WorldConfig faulted = base;
  faulted.outage_cell = kOutageCell;
  faulted.outage_start = sim::kEpoch + base.duration / 4;
  faulted.outage_end = sim::kEpoch + base.duration;
  ev.faulted.result = world::WorldEngine{faulted}.Run();
  ev.faulted.completed = true;

  const world::WorldResult& hit = ev.faulted.result;
  CheckRepeatable(out, "faulted world", hit, world::WorldEngine{faulted}.Run());

  // The blast radius, judged on the population the outage hit (the UEs
  // that started on the dark cell), not on world-wide delivery: UEs that
  // hand over during the outage carry their backlog to a live cell, so
  // the outage may only delay their traffic.
  const std::string group = std::string(kWorldGroup) + "/cell" + std::to_string(kOutageCell);
  const auto clean_group = ev.clean.report.scenarios.find(group);
  const auto hit_group = hit.report.scenarios.find(group);
  if (clean_group == ev.clean.report.scenarios.end() ||
      hit_group == hit.report.scenarios.end()) {
    Fail(out, "outage cell's population group missing from the FleetReport: " + group);
    return;
  }
  using obs::fleet::FleetMetric;
  const double owd_clean = GroupMean(clean_group->second, FleetMetric::kUplinkOwdMs);
  const double owd_hit = GroupMean(hit_group->second, FleetMetric::kUplinkOwdMs);
  if (!(owd_hit > owd_clean)) {
    Fail(out, "cell outage did not raise its population's uplink OWD mean (" +
                  std::to_string(owd_hit) + " <= " + std::to_string(owd_clean) + " ms)");
  }
  const double late_clean = GroupMean(clean_group->second, FleetMetric::kFrameLateFraction);
  const double late_hit = GroupMean(hit_group->second, FleetMetric::kFrameLateFraction);
  if (late_hit < late_clean) {
    Fail(out, "cell outage lowered its population's late-frame fraction (" +
                  std::to_string(late_hit) + " < " + std::to_string(late_clean) + ")");
  }
}

/// One kill: the supervisor restores from the latest snapshot, replays
/// through the (now disarmed) crash window, and finishes the run. Crash
/// and restore must be invisible in the final state.
void CheckShardCrashRestore(const world::WorldConfig& base, ChaosOutcome& out,
                            WorldEvidence& ev) {
  ev.faulted = SuperviseWorld(base, /*crash_window=*/0, /*max_kills=*/1, 1 << 20);
  const resilience::WorldSupervisedOutcome& sup = ev.faulted;
  if (sup.crashes < 1) Fail(out, "crash injection never fired");
  if (sup.restarts < 1) Fail(out, "supervisor never restarted");
  if (sup.checkpoints_taken < 1) Fail(out, "no world snapshot was taken");
  if (sup.result.digest != ev.clean.digest) {
    Fail(out, "recovered world digest differs from the uninterrupted run");
  }
  if (sup.result.fleet_json != ev.clean.fleet_json) {
    Fail(out, "recovered world FleetReport not byte-identical to the uninterrupted run");
  }

  // Cross-layout probe: the same kill/restore at 1 sequential shard must
  // land on the same digest (snapshots are layout-invariant).
  world::WorldConfig narrow = base;
  narrow.shards = 1;
  narrow.threaded = false;
  const resilience::WorldSupervisedOutcome narrow_run =
      SuperviseWorld(std::move(narrow), 0, /*max_kills=*/1, 1 << 20);
  if (!narrow_run.completed) {
    Fail(out, "1-shard sequential recovery did not complete: " + narrow_run.last_error);
  } else if (narrow_run.result.digest != ev.clean.digest) {
    Fail(out, "1-shard sequential recovery digest differs from the uninterrupted run");
  }
}

/// Crashes blamed on one cell exhaust its restart budget, so the
/// supervisor quarantines it and the engine evacuates its population.
void CheckCellQuarantine(const world::WorldConfig& base, ChaosOutcome& out, WorldEvidence& ev) {
  // Crash (and so quarantine) at a window with less run time left than
  // one 4-message handover, so the blamed cell's UEs strand and the
  // delivery loss is deterministic — an early quarantine lets the
  // evacuated UEs drain their backlog on a surviving cell and the
  // end-state totals can converge with the clean run.
  const auto schedule = sim::WindowSchedule::Cover(
      sim::kEpoch, sim::kEpoch + base.duration, base.link_latency);
  const std::uint64_t crash_window =
      schedule.windows > 60 ? schedule.windows - 40 : schedule.windows / 2 + 1;

  // Budget 1 with kills to spare: the second crash blamed on the same
  // cell exceeds the budget and triggers quarantine; the third attempt
  // runs with the cell dark.
  ev.faulted = SuperviseWorld(base, crash_window, /*max_kills=*/8, /*budget=*/1);
  const resilience::WorldSupervisedOutcome& sup = ev.faulted;
  const world::WorldResult& r = sup.result;
  if (sup.quarantined_cells.empty() || r.quarantined_cells.empty()) {
    Fail(out, "restart budget exhausted but no cell was quarantined");
  }
  if (r.evacuated + r.stranded == 0) {
    Fail(out, "quarantined cell's population was neither evacuated nor stranded");
  }

  // Degradation contract: a dark cell must cost delivery, never mint
  // packets, and its population group must be visible to operators.
  if (r.delivered >= ev.clean.delivered) {
    Fail(out, "cell quarantine did not reduce population delivery (" +
                  std::to_string(r.delivered) + " >= " + std::to_string(ev.clean.delivered) +
                  ")");
  }
  if (r.lost < ev.clean.lost) {
    Fail(out, "quarantined world lost fewer packets than the clean one (" +
                  std::to_string(r.lost) + " < " + std::to_string(ev.clean.lost) + ")");
  }
  if (!r.quarantined_cells.empty()) {
    const std::string group = std::string(kWorldGroup) + "/cell" +
                              std::to_string(r.quarantined_cells.front()) + "/quarantined";
    if (r.report.scenarios.count(group) == 0) {
      Fail(out, "quarantined population group missing from the FleetReport: " + group);
    }
  }

  // Determinism probe: the whole supervised trajectory — crashes,
  // restores, quarantine, evacuation — is a pure function of (config,
  // seed).
  CheckRepeatable(out, "quarantined world", r,
                  SuperviseWorld(base, crash_window, /*max_kills=*/8, /*budget=*/1).result);
}

/// Runs the clean world every contract is held against, then the
/// scenario's faulted world and its contract; every world must complete
/// and conserve its packets.
void RunWorldContract(const ChaosScenario& scenario, std::uint64_t seed,
                      const ChaosRunOptions& options, ChaosOutcome& out) {
  WorldEvidence& ev = out.evidence.emplace<WorldEvidence>();
  if (options.mitigate) {
    throw std::invalid_argument("world scenarios take no mitigation axis");
  }
  const world::WorldConfig base = ScenarioWorldConfig(scenario, seed);
  ev.clean = world::WorldEngine{base}.Run();
  if (scenario.world == WorldContract::kCellOutage) {
    CheckCellOutage(base, out, ev);
  } else if (scenario.world == WorldContract::kShardCrashRestore) {
    CheckShardCrashRestore(base, out, ev);
  } else {
    CheckCellQuarantine(base, out, ev);
  }
  out.survived = ev.faulted.completed;
  out.digest = ev.faulted.result.digest;
  if (!out.survived) Fail(out, "faulted world did not complete: " + ev.faulted.last_error);
  CheckConservation(out, "clean world", ev.clean);
  CheckConservation(out, "faulted world", ev.faulted.result);
}

}  // namespace

ChaosOutcome RunChaosScenario(const ChaosScenario& scenario, std::uint64_t seed,
                              const ChaosRunOptions& options) {
  ChaosOutcome out;
  out.scenario = scenario.name;
  out.seed = seed;
  if (options.summarize && !scenario.is_world()) out.summary.emplace();
  try {
    if (scenario.is_world()) {
      RunWorldContract(scenario, seed, options, out);
    } else if (options.mitigate) {
      RunMitigationPair(scenario, seed, options, out);
    } else if (scenario.supervised) {
      RunSupervisedSession(scenario, seed, out);
    } else {
      RunPlainSession(scenario, seed, out);
    }
  } catch (const std::exception& e) {
    out.survived = false;
    out.failure = std::string("exception: ") + e.what();
  } catch (...) {
    out.survived = false;
    out.failure = "unknown exception";
  }
  return out;
}

ChaosMatrixResult RunChaosMatrix(const std::vector<ChaosScenario>& scenarios,
                                 std::uint64_t base_seed, std::size_t seeds, unsigned jobs,
                                 const ChaosRunOptions& options) {
  const sim::ParallelRunner runner{jobs};
  // Each (scenario, seed) cell is a pure function of its index; Map
  // returns index order, so the matrix is identical for any job count.
  return {.base_seed = base_seed,
          .seeds = seeds,
          .jobs = runner.jobs(),
          .options = options,
          .outcomes = runner.Map<ChaosOutcome>(scenarios.size() * seeds, [&](std::size_t i) {
            return RunChaosScenario(scenarios[i / seeds],
                                    sim::DeriveSeed(base_seed, i % seeds), options);
          })};
}

namespace {

const char* Bool(bool b) { return b ? "true" : "false"; }

void WriteJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void WriteQoe(std::ostream& os, const char* key, const MitigationQoe& q) {
  os << ", \"" << key << "\": {\"ssim_mean\": " << q.ssim_mean
     << ", \"late_fraction\": " << q.late_fraction << ", \"audio_loss\": " << q.audio_loss
     << ", \"audio_mos\": " << q.audio_mos << ", \"frames_rendered\": " << q.frames_rendered
     << "}";
}

/// Writes one outcome's evidence fields, between its verdict head
/// (scenario, seed, ok, survived) and its `failure` tail.
struct EvidenceJson {
  std::ostream& os;
  const ChaosOutcome& o;

  void operator()(const SessionEvidence& e) const {
    os << ", \"time_monotone\": " << Bool(e.time_monotone)
       << ", \"queues_bounded\": " << Bool(e.queues_bounded)
       << ", \"contract_met\": " << Bool(e.contract_met)
       << ", \"silently_degraded\": " << Bool(e.silently_degraded)
       << ", \"digest\": \"" << std::hex << o.digest << std::dec << "\""
       << ", \"faults_injected\": " << e.faults_injected
       << ", \"health_degraded\": " << Bool(e.health_degraded)
       << ", \"telemetry_gaps\": " << e.telemetry_gaps
       << ", \"telemetry_repairs\": " << e.telemetry_repairs
       << ", \"uncovered_packets\": " << e.uncovered_packets
       << ", \"mean_match_confidence\": " << e.mean_match_confidence
       << ", \"anomalies_total\": " << e.anomalies_total
       << ", \"telemetry_gap_anomalies\": " << e.telemetry_gap_anomalies
       << ", \"packets_correlated\": " << e.packets_correlated
       << ", \"events_executed\": " << e.events_executed << ", \"kills\": " << e.kills
       << ", \"restores\": " << e.restores << ", \"digest_match\": " << Bool(e.digest_match)
       << ", \"shed_total\": " << e.shed_total << ", \"shed_capped\": " << e.shed_capped
       << ", \"bounded_bytes\": " << e.bounded_bytes
       << ", \"overload_anomalies\": " << e.overload_anomalies;
  }
  void operator()(const MitigationEvidence& e) const {
    WriteQoe(os, "baseline", e.baseline);
    WriteQoe(os, "mitigated", e.mitigated);
    os << ", \"decisions\": " << e.decisions << ", \"actuations\": " << e.actuations
       << ", \"reverts\": " << e.reverts << ", \"guardrail_blocks\": " << e.guardrail_blocks
       << ", \"ledger_digest\": \"" << std::hex << o.digest << std::dec << "\""
       << ", \"max_sense_to_act_us\": " << e.max_sense_to_act_us
       << ", \"budget_ok\": " << Bool(e.budget_ok) << ", \"qoe_ok\": " << Bool(e.qoe_ok)
       << ", \"guarded_ok\": " << Bool(e.guarded_ok);
  }
  void operator()(const WorldEvidence& e) const {
    const world::WorldResult& r = e.faulted.result;
    os << ", \"digest\": \"" << std::hex << o.digest << "\", \"clean_digest\": \""
       << e.clean.digest << std::dec << "\", \"conservation_ok\": " << Bool(r.conservation_ok)
       << ", \"delivered\": " << r.delivered << ", \"clean_delivered\": " << e.clean.delivered
       << ", \"lost\": " << r.lost << ", \"clean_lost\": " << e.clean.lost
       << ", \"crashes\": " << e.faulted.crashes << ", \"restarts\": " << e.faulted.restarts
       << ", \"checkpoints\": " << e.faulted.checkpoints_taken
       << ", \"quarantined_cells\": " << r.quarantined_cells.size();
  }
};

/// Writes one outcome's table columns after "PASS  <scenario> seed=<seed>".
struct EvidenceRow {
  std::ostream& os;
  const ChaosOutcome& o;

  void operator()(const SessionEvidence& e) const {
    os << " digest=" << std::hex << o.digest << std::dec << " faults=" << e.faults_injected
       << " degraded=" << (e.health_degraded ? "yes" : "no") << " gaps=" << e.telemetry_gaps
       << " repairs=" << e.telemetry_repairs << " uncovered=" << e.uncovered_packets
       << " phantom=" << e.unmatched_tb_bytes << " conf=" << e.mean_match_confidence
       << " tele_gap_anoms=" << e.telemetry_gap_anomalies;
    if (e.kills > 0 || e.restores > 0) {
      os << " kills=" << e.kills << " restores=" << e.restores
         << " digest_match=" << (e.digest_match ? "yes" : "NO");
    }
    if (e.shed_total > 0) {
      os << " shed=" << e.shed_total << " capped=" << e.shed_capped
         << " bytes=" << e.bounded_bytes << " overload_anoms=" << e.overload_anomalies;
    }
  }
  void operator()(const MitigationEvidence& e) const {
    os << " late_frac=" << e.baseline.late_fraction << "->" << e.mitigated.late_fraction
       << " ssim=" << e.baseline.ssim_mean << "->" << e.mitigated.ssim_mean
       << " mos=" << e.baseline.audio_mos << "->" << e.mitigated.audio_mos
       << " acts=" << e.actuations << " reverts=" << e.reverts
       << " blocks=" << e.guardrail_blocks << " sense_us=" << e.max_sense_to_act_us
       << " ledger=" << std::hex << o.digest << std::dec;
  }
  void operator()(const WorldEvidence& e) const {
    const world::WorldResult& r = e.faulted.result;
    os << " digest=" << std::hex << o.digest << std::dec << " delivered=" << e.clean.delivered
       << "->" << r.delivered << " lost=" << e.clean.lost << "->" << r.lost
       << " conservation=" << (r.conservation_ok ? "ok" : "VIOLATED")
       << " crashes=" << e.faulted.crashes << " restarts=" << e.faulted.restarts
       << " quarantined=" << r.quarantined_cells.size();
  }
};

}  // namespace

void WriteChaosJson(std::ostream& os, const ChaosMatrixResult& result) {
  const bool mitigate = result.options.mitigate;
  os << "{\n  \"bench\": \"" << (mitigate ? "mitigation_matrix" : "chaos_matrix") << "\",\n";
  os << "  \"base_seed\": " << result.base_seed << ",\n";
  os << "  \"seeds\": " << result.seeds << ",\n";
  os << "  \"jobs\": " << result.jobs << ",\n";
  if (mitigate) os << "  \"budget_ms\": " << sim::ToMs(result.options.budget) << ",\n";
  os << "  \"runs\": " << result.outcomes.size() << ",\n";
  os << "  \"failures\": " << result.failures() << ",\n";
  os << "  \"all_ok\": " << Bool(result.all_ok()) << ",\n";
  os << "  \"outcomes\": [\n";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const ChaosOutcome& o = result.outcomes[i];
    os << "    {\"scenario\": ";
    WriteJsonString(os, o.scenario);
    os << ", \"seed\": " << o.seed << ", \"ok\": " << Bool(o.ok())
       << ", \"survived\": " << Bool(o.survived);
    std::visit(EvidenceJson{os, o}, o.evidence);
    os << ", \"failure\": ";
    WriteJsonString(os, o.failure);
    os << "}" << (i + 1 < result.outcomes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void RenderChaosTable(std::ostream& os, const ChaosMatrixResult& result) {
  for (const ChaosOutcome& o : result.outcomes) {
    os << (o.ok() ? "PASS" : "FAIL") << "  " << o.scenario << " seed=" << o.seed;
    std::visit(EvidenceRow{os, o}, o.evidence);
    if (!o.failure.empty()) os << "  [" << o.failure << "]";
    os << "\n";
  }
  os << (result.all_ok() ? "chaos matrix: all invariants held"
                         : "chaos matrix: INVARIANT VIOLATIONS")
     << " (" << result.outcomes.size() - result.failures() << "/"
     << result.outcomes.size() << " ok)\n";
}

}  // namespace athena::fault
