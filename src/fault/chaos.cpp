#include "fault/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <ostream>
#include <utility>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "obs/live/detectors.hpp"
#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/overload.hpp"
#include "resilience/supervisor.hpp"
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

ChaosScenario Make(std::string name, std::string description, ChaosExpectation expect) {
  ChaosScenario s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.expect = expect;
  return s;
}

}  // namespace

std::vector<ChaosScenario> BuiltinScenarios() {
  std::vector<ChaosScenario> all;

  // 1. The control: the contract cuts both ways — a clean feed must
  // produce *zero* degradation signals, or every report is noise.
  all.push_back(Make("clean_baseline",
                     "no faults; health must be pristine and telemetry_gap silent",
                     ChaosExpectation{}));

  // 2. Random record loss: the sniffer misses DCI decodes under load.
  {
    auto s = Make("telemetry_drop",
                  "40% of TbRecords vanish at random (sniffer decode misses)",
                  {.degraded = true, .telemetry_gap_anomaly = true});
    s.plan.For(Stream::kTelemetry).drop = 0.4;
    all.push_back(std::move(s));
  }

  // 3. Burst outage: sniffer crash + restart mid-call.
  {
    auto s = Make("telemetry_burst_outage",
                  "telemetry silent for [700ms, 1300ms) (sniffer crash/restart)",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true});
    s.plan.For(Stream::kTelemetry).outage_begin = sim::kEpoch + 700ms;
    s.plan.For(Stream::kTelemetry).outage_end = sim::kEpoch + 1300ms;
    all.push_back(std::move(s));
  }

  // 4. Truncation: the collector died before the run finished.
  {
    auto s = Make("telemetry_truncate",
                  "telemetry ends at 55% of the run (collector died early)",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true});
    s.plan.For(Stream::kTelemetry).truncate_after_fraction = 0.55;
    all.push_back(std::move(s));
  }

  // 5. Duplicates + bounded reordering: a lossy transport re-delivering
  // and shuffling the telemetry export stream.
  {
    auto s = Make("telemetry_dup_reorder",
                  "25% duplicated, 30% reordered (depth 12) TbRecords",
                  {.degraded = true, .telemetry_flagged = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.duplicate = 0.25;
    spec.reorder = 0.3;
    spec.reorder_depth = 12;
    all.push_back(std::move(s));
  }

  // 6. Collection latency: records timestamped late by a jittery export
  // path, landing behind their successors.
  {
    auto s = Make("telemetry_delay",
                  "30% of TbRecords timestamped 2-30ms late (export latency)",
                  {.degraded = true, .telemetry_flagged = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.delay = 0.3;
    spec.delay_min = 2ms;
    spec.delay_max = 30ms;
    all.push_back(std::move(s));
  }

  // 7. Field corruption: sizes, HARQ metadata and CRC verdicts scrambled.
  {
    auto s = Make("telemetry_corrupt",
                  "25% of TbRecords have one field scrambled (decode errors)",
                  {.degraded = true});
    s.plan.For(Stream::kTelemetry).corrupt = 0.25;
    all.push_back(std::move(s));
  }

  // 8. Capture-side duplicates + reordering: pcap taps re-deliver.
  {
    auto s = Make("capture_dup_reorder",
                  "core+receiver captures: 20% duplicated, 25% reordered",
                  {.degraded = true});
    for (Stream st : {Stream::kCoreCapture, Stream::kReceiverCapture}) {
      auto& spec = s.plan.For(st);
      spec.duplicate = 0.2;
      spec.reorder = 0.25;
      spec.reorder_depth = 8;
    }
    all.push_back(std::move(s));
  }

  // 9. Clock step: the sender host NTP-steps backwards mid-call, so its
  // capture timestamps fold over themselves.
  {
    auto s = Make("capture_clock_step",
                  "sender capture clock steps -20ms at t=1s (NTP re-sync)",
                  {.degraded = true});
    auto& spec = s.plan.For(Stream::kSenderCapture);
    spec.clock_step = -20ms;
    spec.clock_step_at = sim::kEpoch + 1s;
    all.push_back(std::move(s));
  }

  // 10. Clock drift below the detection floor: the pipeline must absorb
  // it without crashing, but flagging it is not required.
  {
    auto s = Make("telemetry_clock_drift",
                  "telemetry clock drifts 400ppm (skewed oscillator; tolerated)",
                  {.tolerated = true});
    s.plan.For(Stream::kTelemetry).clock_drift_ppm = 400.0;
    all.push_back(std::move(s));
  }

  // 11. Process death mid-run: the collector is killed at a seed-derived
  // virtual time and restored from its latest checkpoint. The restored
  // run's final *and* report digests must be byte-identical to an
  // uninterrupted run — the checkpoint/restore determinism contract,
  // exercised end to end under the supervisor.
  {
    auto s = Make("kill_restore_midrun",
                  "process killed at a seed-derived virtual time, restored from "
                  "checkpoint; digests must match an uninterrupted run",
                  {.restore_identical = true});
    s.supervised = true;
    s.plan.process.max_kills = 1;  // kill point derived per seed at run time
    all.push_back(std::move(s));
  }

  // 12. Telemetry flood against a hard byte budget: a misbehaving
  // collector re-reports everything ~10x with jittered timestamps. The
  // governor must keep the input bounded, shed loudly, raise the
  // overload anomaly, and correlation of the surviving records must
  // still succeed.
  {
    auto s = Make("overload_flood",
                  "10x telemetry/capture flood vs a hard byte budget: bounded "
                  "memory, loud shed counters, correlation survives",
                  {.degraded = true, .bounded_memory = true});
    s.plan.For(Stream::kTelemetry).flood_factor = 10.0;
    s.plan.For(Stream::kCoreCapture).flood_factor = 10.0;
    // ~2.3x the clean input, ~0.4x the flooded one: tiers 2-3 alone
    // cannot absorb the flood, so the hard cap must engage (loudly).
    s.budget.input_bytes = 256 * 1024;
    all.push_back(std::move(s));
  }

  // 13. Lying telemetry: the feed keeps flowing but a quarter of it is
  // wrong (scrambled fields) and late. An online mitigation loop that
  // trusts it would actuate on fiction — the guardrail contract demands
  // the confidence gate block (or the watchdog revert) at least once.
  {
    auto s = Make("lying_telemetry",
                  "30% of TbRecords corrupted + 20% timestamped late: the "
                  "control plane must refuse or roll back, never act blindly",
                  {.degraded = true, .mitigation_guarded = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.corrupt = 0.3;
    spec.delay = 0.2;
    spec.delay_min = 2ms;
    spec.delay_max = 25ms;
    all.push_back(std::move(s));
  }

  // 14. Detector outage during actuation: telemetry goes dark over a
  // handover-shaped window right when the controller is likely to be
  // holding knobs away from baseline, then the restarted feed steps its
  // clock. The feed-silence fail-safe must revert to baseline (or the
  // gate must hold fire) rather than steering on stale evidence.
  {
    auto s = Make("actuate_during_handover",
                  "telemetry dark for [800ms, 1300ms) with a -15ms clock step "
                  "on re-attach: fail-safe must revert/hold, not steer blind",
                  {.degraded = true, .telemetry_gap_anomaly = true,
                   .telemetry_flagged = true, .mitigation_guarded = true});
    auto& spec = s.plan.For(Stream::kTelemetry);
    spec.outage_begin = sim::kEpoch + 800ms;
    spec.outage_end = sim::kEpoch + 1300ms;
    spec.clock_step = -15ms;
    spec.clock_step_at = sim::kEpoch + 1300ms;
    all.push_back(std::move(s));
  }

  // 15. Everything at once, under cross traffic.
  {
    auto s = Make("everything_hostile",
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
    all.push_back(std::move(s));
  }

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

/// Fleet extraction for supervised scenarios: the process faults only
/// kill the *driver*; the simulated session itself is untouched. Re-run
/// the same (config, seed) plainly and summarize that — deterministic
/// and identical to what the supervised run computed between crashes.
obs::fleet::SessionSummary SummarizePlainRun(const ChaosScenario& scenario,
                                             std::uint64_t seed) {
  sim::Simulator simulator;
  app::Session session{simulator, ScenarioSessionConfig(scenario, seed)};
  session.Run(scenario.duration);
  const core::CorrelatorInput input = session.BuildCorrelatorInput();
  const core::CrossLayerDataset data = core::Correlator::Correlate(input);
  obs::live::DetectorBank bank;
  ReplayIntoBank(input, bank);
  return obs::fleet::SummarizeSession({.dataset = &data,
                                       .qoe = &session.qoe(),
                                       .detectors = &bank,
                                       .scenario = scenario.name,
                                       .seed = seed});
}

/// Supervised scenarios: run the plan under the resilience Supervisor
/// with an injected process kill, then run the same plan uninterrupted
/// and demand byte-identical final + report digests.
ChaosOutcome RunSupervisedScenario(const ChaosScenario& scenario, std::uint64_t seed,
                                   bool summarize) {
  ChaosOutcome out;
  out.scenario = scenario.name;
  out.seed = seed;

  try {
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
      const std::uint64_t offset =
          span / 5 + sim::DeriveSeed(seed, 0x6B) % (3 * span / 5);
      faults.kill_at = sim::kEpoch + sim::Duration{static_cast<std::int64_t>(offset)};
    }

    resilience::SupervisorOptions options;
    options.watchdog = false;  // keep matrix workers thread-free
    resilience::Supervisor supervisor{plan, options};
    const resilience::SupervisedOutcome sup = supervisor.Run(faults);

    out.kills = sup.crashes;
    out.restores = sup.restores;
    out.survived = sup.completed;
    out.time_monotone = sup.completed;
    out.queues_bounded = true;  // the driver owns and drains its simulator
    out.events_executed = sup.outcome.events_executed;
    out.packets_correlated = sup.outcome.packets_correlated;
    out.digest = sup.outcome.final_digest;
    out.shed_total = sup.outcome.shed.total();
    out.shed_capped = sup.outcome.shed.capped();

    // The determinism oracle: the identical plan, never killed.
    resilience::CheckpointingDriver reference{plan};
    const resilience::RunOutcome ref = reference.Run();
    out.digest_match = sup.completed &&
                       sup.outcome.final_digest == ref.final_digest &&
                       sup.outcome.report_digest == ref.report_digest;

    auto fail = [&](const std::string& why) {
      if (out.failure.empty()) out.failure = why;
    };
    if (!sup.completed) {
      fail(sup.last_error.empty() ? std::string{"supervised run never completed"}
                                  : sup.last_error);
    }
    out.contract_met = sup.completed;
    if (scenario.expect.restore_identical) {
      if (out.kills == 0) fail("kill point never fired");
      if (out.restores == 0) fail("run was never restored from a checkpoint");
      if (!out.digest_match) fail("restored digests diverge from the uninterrupted run");
      out.contract_met = out.contract_met && out.kills > 0 && out.restores > 0 &&
                         out.digest_match;
    }
    if (summarize) out.summary = SummarizePlainRun(scenario, seed);
  } catch (const std::exception& e) {
    out.survived = false;
    out.failure = std::string("exception: ") + e.what();
  } catch (...) {
    out.survived = false;
    out.failure = "unknown exception";
  }
  return out;
}

}  // namespace

ChaosOutcome RunChaosScenario(const ChaosScenario& scenario, std::uint64_t seed,
                              bool summarize) {
  if (scenario.supervised) return RunSupervisedScenario(scenario, seed, summarize);

  ChaosOutcome out;
  out.scenario = scenario.name;
  out.seed = seed;

  try {
    sim::Simulator simulator;
    // A per-run registry so the degradation gauges the correlator and
    // injector publish are inspectable (and so sweep workers never share).
    obs::MetricsRegistry registry;
    obs::ScopedMetrics metrics_scope{&registry};

    app::Session session{simulator, ScenarioSessionConfig(scenario, seed)};
    session.Run(scenario.duration);

    out.events_executed = simulator.events_executed();
    out.time_monotone =
        simulator.Now() >= sim::kEpoch + scenario.duration && out.events_executed > 0;
    out.queues_bounded = simulator.queue_depth() <= kQueueDepthBound;

    // Impair the recorded feeds exactly as a deployment would see them.
    core::CorrelatorInput input = session.BuildCorrelatorInput();
    FaultInjector injector{scenario.plan, seed};
    injector.Apply(Stream::kTelemetry, input.telemetry);
    injector.Apply(Stream::kSenderCapture, input.sender);
    injector.Apply(Stream::kCoreCapture, input.core);
    injector.Apply(Stream::kReceiverCapture, input.receiver);
    out.faults_injected = injector.stats().total_faults();
    injector.stats().PublishMetrics();

    // Overload governor: bound the impaired input before anything
    // downstream sees it, exactly as the resilient pipeline does.
    if (scenario.budget.any()) {
      const resilience::ShedStats shed = resilience::BoundInput(input, scenario.budget);
      shed.PublishMetrics();
      out.shed_total = shed.total();
      out.shed_capped = shed.capped();
      out.bounded_bytes = resilience::InputBytes(input);
    }

    InputDigest digest;
    digest.Mix(seed);
    digest.Mix(input.telemetry);
    digest.Mix(input.sender);
    digest.Mix(input.core);
    digest.Mix(input.receiver);
    out.digest = digest.value();

    const core::CrossLayerDataset data = core::Correlator::Correlate(input);
    out.health_degraded = data.health.degraded();
    out.telemetry_gaps = data.health.telemetry.gaps;
    out.telemetry_repairs = data.health.telemetry.duplicates_dropped +
                            data.health.telemetry.out_of_order;
    out.uncovered_packets = data.health.uncovered_packets;
    out.unmatched_tb_bytes = data.unmatched_tb_bytes;
    out.mean_match_confidence = data.health.mean_match_confidence;
    out.packets_correlated = data.packets.size();

    // The live engine's verdict on the same impaired evidence.
    obs::live::DetectorBank bank;
    ReplayIntoBank(input, bank);
    if (out.shed_total > 0) {
      bank.OnShed({.t = simulator.Now(),
                   .shed_total = static_cast<double>(out.shed_total),
                   .shed_capped = static_cast<double>(out.shed_capped)});
    }
    out.anomalies_total = bank.anomaly_count();
    out.telemetry_gap_anomalies =
        bank.anomaly_count(obs::live::AnomalyKind::kTelemetryGap);
    out.overload_anomalies = bank.anomaly_count(obs::live::AnomalyKind::kOverload);

    if (summarize) {
      // The fleet digest of what this run observed: the (impaired)
      // correlated dataset, the receiver-side QoE and the live verdicts.
      out.summary = obs::fleet::SummarizeSession({.dataset = &data,
                                                  .qoe = &session.qoe(),
                                                  .detectors = &bank,
                                                  .scenario = scenario.name,
                                                  .seed = seed});
    }

    // Degradation must be *reported*, not just computed: the gauges the
    // rest of the stack scrapes have to agree with the dataset verdict.
    const bool gauges_agree =
        registry.GaugeValue("core.degraded") == (out.health_degraded ? 1.0 : 0.0);

    out.survived = true;

    // --- contract evaluation ---
    const ChaosExpectation& expect = scenario.expect;
    auto fail = [&](const char* why) {
      if (out.failure.empty()) out.failure = why;
    };
    if (!out.time_monotone) fail("virtual time did not reach the configured end");
    if (!out.queues_bounded) fail("event queue not bounded after the run");
    if (!gauges_agree) fail("core.degraded gauge disagrees with the dataset health");

    out.contract_met = gauges_agree;
    if (expect.tolerated) {
      // Hard invariants only.
    } else if (!expect.degraded && !expect.telemetry_gap_anomaly &&
               !expect.telemetry_flagged) {
      // Strict clean contract.
      if (out.faults_injected != 0) fail("clean scenario injected faults");
      if (out.health_degraded) fail("clean run reported degradation");
      if (out.telemetry_gap_anomalies != 0) fail("clean run raised telemetry_gap");
      out.contract_met = out.contract_met && out.faults_injected == 0 &&
                         !out.health_degraded && out.telemetry_gap_anomalies == 0;
    } else {
      if (out.faults_injected == 0) fail("lossy plan injected nothing");
      if (expect.degraded && !out.health_degraded) {
        fail("degradation expected but health reports clean");
      }
      if (expect.telemetry_gap_anomaly && out.telemetry_gap_anomalies == 0) {
        fail("telemetry_gap anomaly expected but the detector stayed silent");
      }
      if (expect.telemetry_flagged && out.telemetry_gaps == 0 &&
          out.telemetry_repairs == 0) {
        fail("telemetry stream expected flagged but shows no gaps/repairs");
      }
      out.contract_met = out.contract_met && out.faults_injected > 0 &&
                         (!expect.degraded || out.health_degraded) &&
                         (!expect.telemetry_gap_anomaly ||
                          out.telemetry_gap_anomalies > 0) &&
                         (!expect.telemetry_flagged || out.telemetry_gaps > 0 ||
                          out.telemetry_repairs > 0);
      if (expect.bounded_memory) {
        const bool fits = scenario.budget.input_bytes == 0 ||
                          out.bounded_bytes <= scenario.budget.input_bytes;
        if (out.shed_total == 0) fail("budget set but the governor shed nothing");
        if (!fits) fail("bounded input still exceeds its byte budget");
        if (out.overload_anomalies == 0) {
          fail("overload detector stayed silent while shedding");
        }
        if (out.packets_correlated == 0) {
          fail("no packets correlated from the bounded input");
        }
        out.contract_met = out.contract_met && out.shed_total > 0 && fits &&
                           out.overload_anomalies > 0 && out.packets_correlated > 0;
      }
      out.silently_degraded = out.faults_injected > 0 && !out.health_degraded &&
                              out.anomalies_total == 0;
      if (out.silently_degraded) fail("faults injected but every signal stayed silent");
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
                                 std::uint64_t base_seed, std::size_t seeds,
                                 unsigned jobs, bool summarize) {
  const std::size_t n = scenarios.size() * seeds;
  const sim::ParallelRunner runner{jobs};
  ChaosMatrixResult result;
  // Each (scenario, seed) cell is a pure function of its index; Map
  // returns index order, so the matrix is identical for any job count.
  result.outcomes = runner.Map<ChaosOutcome>(n, [&](std::size_t i) {
    const ChaosScenario& scenario = scenarios[i / seeds];
    return RunChaosScenario(scenario, sim::DeriveSeed(base_seed, i % seeds), summarize);
  });
  return result;
}

namespace {

void WriteJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void WriteChaosJson(std::ostream& os, const ChaosMatrixResult& result,
                    std::uint64_t base_seed, std::size_t seeds, unsigned jobs) {
  os << "{\n  \"bench\": \"chaos_matrix\",\n";
  os << "  \"base_seed\": " << base_seed << ",\n";
  os << "  \"seeds\": " << seeds << ",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"runs\": " << result.outcomes.size() << ",\n";
  os << "  \"failures\": " << result.failures() << ",\n";
  os << "  \"all_ok\": " << (result.all_ok() ? "true" : "false") << ",\n";
  os << "  \"outcomes\": [\n";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const ChaosOutcome& o = result.outcomes[i];
    os << "    {\"scenario\": ";
    WriteJsonString(os, o.scenario);
    os << ", \"seed\": " << o.seed << ", \"ok\": " << (o.ok() ? "true" : "false")
       << ", \"survived\": " << (o.survived ? "true" : "false")
       << ", \"time_monotone\": " << (o.time_monotone ? "true" : "false")
       << ", \"queues_bounded\": " << (o.queues_bounded ? "true" : "false")
       << ", \"contract_met\": " << (o.contract_met ? "true" : "false")
       << ", \"silently_degraded\": " << (o.silently_degraded ? "true" : "false")
       << ", \"digest\": \"" << std::hex << o.digest << std::dec << "\""
       << ", \"faults_injected\": " << o.faults_injected
       << ", \"health_degraded\": " << (o.health_degraded ? "true" : "false")
       << ", \"telemetry_gaps\": " << o.telemetry_gaps
       << ", \"telemetry_repairs\": " << o.telemetry_repairs
       << ", \"uncovered_packets\": " << o.uncovered_packets
       << ", \"mean_match_confidence\": " << o.mean_match_confidence
       << ", \"anomalies_total\": " << o.anomalies_total
       << ", \"telemetry_gap_anomalies\": " << o.telemetry_gap_anomalies
       << ", \"packets_correlated\": " << o.packets_correlated
       << ", \"events_executed\": " << o.events_executed
       << ", \"kills\": " << o.kills << ", \"restores\": " << o.restores
       << ", \"digest_match\": " << (o.digest_match ? "true" : "false")
       << ", \"shed_total\": " << o.shed_total
       << ", \"shed_capped\": " << o.shed_capped
       << ", \"bounded_bytes\": " << o.bounded_bytes
       << ", \"overload_anomalies\": " << o.overload_anomalies << ", \"failure\": ";
    WriteJsonString(os, o.failure);
    os << "}" << (i + 1 < result.outcomes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void RenderChaosTable(std::ostream& os, const ChaosMatrixResult& result) {
  for (const ChaosOutcome& o : result.outcomes) {
    os << (o.ok() ? "PASS" : "FAIL") << "  " << o.scenario << " seed=" << o.seed
       << " digest=" << std::hex << o.digest << std::dec
       << " faults=" << o.faults_injected
       << " degraded=" << (o.health_degraded ? "yes" : "no")
       << " gaps=" << o.telemetry_gaps << " repairs=" << o.telemetry_repairs
       << " uncovered=" << o.uncovered_packets << " phantom=" << o.unmatched_tb_bytes
       << " conf=" << o.mean_match_confidence
       << " tele_gap_anoms=" << o.telemetry_gap_anomalies;
    if (o.kills > 0 || o.restores > 0) {
      os << " kills=" << o.kills << " restores=" << o.restores
         << " digest_match=" << (o.digest_match ? "yes" : "NO");
    }
    if (o.shed_total > 0) {
      os << " shed=" << o.shed_total << " capped=" << o.shed_capped
         << " bytes=" << o.bounded_bytes << " overload_anoms=" << o.overload_anomalies;
    }
    if (!o.failure.empty()) os << "  [" << o.failure << "]";
    os << "\n";
  }
  os << (result.all_ok() ? "chaos matrix: all invariants held"
                         : "chaos matrix: INVARIANT VIOLATIONS")
     << " (" << result.outcomes.size() - result.failures() << "/"
     << result.outcomes.size() << " ok)\n";
}

}  // namespace athena::fault
