#include "fault/mitigation_chaos.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <ostream>
#include <utility>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "media/qoe.hpp"
#include "mitigation/control/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

namespace athena::fault {
namespace {

using namespace std::chrono_literals;

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

}  // namespace

MitigationOutcome RunMitigationScenario(const ChaosScenario& scenario,
                                        std::uint64_t seed, sim::Duration budget,
                                        MitigationSlack slack, bool summarize) {
  MitigationOutcome out;
  out.scenario = scenario.name;
  out.seed = seed;

  try {
    // Leg 1: the un-mitigated reference. Per-leg metrics registries keep
    // the comparison (and matrix workers) isolated.
    {
      obs::MetricsRegistry registry;
      obs::ScopedMetrics metrics_scope{&registry};
      sim::Simulator simulator;
      app::Session session{simulator, ScenarioSessionConfig(scenario, seed)};
      session.Run(scenario.duration);
      out.baseline = ExtractQoe(session.qoe());
    }

    // Leg 2: the same session under the closed loop, with the scenario's
    // telemetry faults applied live to the control plane's feed.
    {
      obs::MetricsRegistry registry;
      obs::ScopedMetrics metrics_scope{&registry};
      sim::Simulator simulator;

      mitigation::control::MitigationRuntime::Options options;
      options.controller.budget = budget;
      mitigation::control::MitigationRuntime runtime{options};

      app::SessionConfig config = ScenarioSessionConfig(scenario, seed);
      runtime.InstallConfigHooks(config);
      app::Session session{simulator, config};
      runtime.BindSession(simulator, session);
      runtime.set_feed_fault(MakeFeedFault(scenario.plan.For(Stream::kTelemetry), seed));

      {
        obs::ScopedTraceSink trace_scope{runtime.sink()};
        session.Run(scenario.duration);
      }

      out.mitigated = ExtractQoe(session.qoe());
      if (summarize) {
        // The fleet digest of the mitigated leg: the correlated dataset,
        // receiver-side QoE, and the live detector verdicts that drove
        // the controller.
        const core::CrossLayerDataset data =
            core::Correlator::Correlate(session.BuildCorrelatorInput());
        out.summary = obs::fleet::SummarizeSession({.dataset = &data,
                                                    .qoe = &session.qoe(),
                                                    .detectors = &runtime.live()->bank(),
                                                    .scenario = scenario.name,
                                                    .seed = seed});
      }
      const auto* controller = runtime.controller();
      out.decisions = controller->ledger().size();
      out.actuations = controller->actuations();
      out.reverts = controller->reverts();
      out.guardrail_blocks = controller->guardrail_blocks();
      out.ledger_digest = controller->LedgerDigest();
      out.max_sense_to_act_us = controller->max_sense_to_act().count();
      out.budget_ok = controller->max_sense_to_act() <= budget;
    }

    out.survived = true;

    auto fail = [&](const char* why) {
      if (out.failure.empty()) out.failure = why;
    };
    if (!out.budget_ok) fail("sense-to-act latency exceeded the budget");

    // Never-regress: mitigation on must not be meaningfully worse than
    // mitigation off on any facet, under any scenario.
    out.qoe_ok = out.mitigated.late_fraction <=
                     out.baseline.late_fraction + slack.late_fraction &&
                 out.mitigated.ssim_mean >= out.baseline.ssim_mean - slack.ssim &&
                 out.mitigated.audio_loss <= out.baseline.audio_loss + slack.audio_loss &&
                 out.mitigated.audio_mos >= out.baseline.audio_mos - slack.audio_mos;
    if (!out.qoe_ok) fail("mitigated QoE regressed beyond slack vs baseline");

    out.guarded_ok = !scenario.expect.mitigation_guarded ||
                     out.guardrail_blocks + out.reverts > 0;
    if (!out.guarded_ok) {
      fail("guardrails never engaged on a scenario with hostile telemetry");
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

MitigationMatrixResult RunMitigationMatrix(const std::vector<ChaosScenario>& scenarios,
                                           std::uint64_t base_seed, std::size_t seeds,
                                           unsigned jobs, sim::Duration budget,
                                           bool summarize) {
  const std::size_t n = scenarios.size() * seeds;
  const sim::ParallelRunner runner{jobs};
  MitigationMatrixResult result;
  result.outcomes = runner.Map<MitigationOutcome>(n, [&](std::size_t i) {
    const ChaosScenario& scenario = scenarios[i / seeds];
    return RunMitigationScenario(scenario, sim::DeriveSeed(base_seed, i % seeds),
                                 budget, {}, summarize);
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

void WriteQoe(std::ostream& os, const char* key, const MitigationQoe& q) {
  os << "\"" << key << "\": {\"ssim_mean\": " << q.ssim_mean
     << ", \"late_fraction\": " << q.late_fraction
     << ", \"audio_loss\": " << q.audio_loss << ", \"audio_mos\": " << q.audio_mos
     << ", \"frames_rendered\": " << q.frames_rendered << "}";
}

}  // namespace

void WriteMitigationJson(std::ostream& os, const MitigationMatrixResult& result,
                         std::uint64_t base_seed, std::size_t seeds, unsigned jobs,
                         sim::Duration budget) {
  os << "{\n  \"bench\": \"mitigation_matrix\",\n";
  os << "  \"base_seed\": " << base_seed << ",\n";
  os << "  \"seeds\": " << seeds << ",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"budget_ms\": " << sim::ToMs(budget) << ",\n";
  os << "  \"runs\": " << result.outcomes.size() << ",\n";
  os << "  \"failures\": " << result.failures() << ",\n";
  os << "  \"all_ok\": " << (result.all_ok() ? "true" : "false") << ",\n";
  os << "  \"outcomes\": [\n";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const MitigationOutcome& o = result.outcomes[i];
    os << "    {\"scenario\": ";
    WriteJsonString(os, o.scenario);
    os << ", \"seed\": " << o.seed << ", \"ok\": " << (o.ok() ? "true" : "false")
       << ", \"survived\": " << (o.survived ? "true" : "false") << ", ";
    WriteQoe(os, "baseline", o.baseline);
    os << ", ";
    WriteQoe(os, "mitigated", o.mitigated);
    os << ", \"decisions\": " << o.decisions << ", \"actuations\": " << o.actuations
       << ", \"reverts\": " << o.reverts
       << ", \"guardrail_blocks\": " << o.guardrail_blocks
       << ", \"ledger_digest\": \"" << std::hex << o.ledger_digest << std::dec << "\""
       << ", \"max_sense_to_act_us\": " << o.max_sense_to_act_us
       << ", \"budget_ok\": " << (o.budget_ok ? "true" : "false")
       << ", \"qoe_ok\": " << (o.qoe_ok ? "true" : "false")
       << ", \"guarded_ok\": " << (o.guarded_ok ? "true" : "false")
       << ", \"failure\": ";
    WriteJsonString(os, o.failure);
    os << "}" << (i + 1 < result.outcomes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void RenderMitigationTable(std::ostream& os, const MitigationMatrixResult& result) {
  for (const MitigationOutcome& o : result.outcomes) {
    os << (o.ok() ? "PASS" : "FAIL") << "  " << o.scenario << " seed=" << o.seed
       << " late_frac=" << o.baseline.late_fraction << "->" << o.mitigated.late_fraction
       << " ssim=" << o.baseline.ssim_mean << "->" << o.mitigated.ssim_mean
       << " mos=" << o.baseline.audio_mos << "->" << o.mitigated.audio_mos
       << " acts=" << o.actuations << " reverts=" << o.reverts
       << " blocks=" << o.guardrail_blocks << " sense_us=" << o.max_sense_to_act_us
       << " ledger=" << std::hex << o.ledger_digest << std::dec;
    if (!o.failure.empty()) os << "  [" << o.failure << "]";
    os << "\n";
  }
  os << (result.all_ok() ? "mitigation matrix: all contracts held"
                         : "mitigation matrix: CONTRACT VIOLATIONS")
     << " (" << result.outcomes.size() - result.failures() << "/"
     << result.outcomes.size() << " ok)\n";
}

}  // namespace athena::fault
