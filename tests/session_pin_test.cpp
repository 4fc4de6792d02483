// Session digest pins: the FNV-1a of a session's rendered core::Report
// at fixed seeds. Every layer a session runs through (ran, rtp, cc, app,
// media, the correlator and the report) feeds these bytes, so any
// behaviour change anywhere on the session path moves a pin. A refactor
// that claims to change nothing must leave all of them in place.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "core/report.hpp"
#include "mitigation/control/runtime.hpp"
#include "resilience/checkpoint.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The benchmark's canonical loaded 5G session: fading radio, 16 Mbps
/// bursty cross traffic on a 25 Mbps cell.
app::SessionConfig CanonicalConfig(std::uint64_t seed) {
  app::SessionConfig config;
  config.seed = seed;
  config.channel = ran::ChannelModel::FadingRadio();
  config.cross_traffic = net::CapacityTrace{16e6};
  config.cross_burstiness = 0.35;
  config.cross_modulation_sigma = 0.5;
  config.cell.cell_ul_capacity_bps = 25e6;
  return config;
}

struct PinnedRun {
  std::uint64_t report_digest = 0;
  /// Stretches of at least 100 ms without any TB on the control channel.
  int silent_stretches = 0;
};

/// Runs one session for `span` and returns the FNV-1a of its report.
PinnedRun RunPinned(const app::SessionConfig& config, sim::Duration span) {
  sim::Simulator sim;
  app::Session session{sim, config};
  session.Start();
  sim.RunFor(span);
  session.Stop();
  const core::CrossLayerDataset data =
      core::Correlator::Correlate(session.BuildCorrelatorInput());
  std::ostringstream report;
  core::Report::Render(report,
                       core::Report::Inputs{
                           .dataset = &data,
                           .qoe = &session.qoe(),
                           .ran_counters = &session.ran_uplink()->counters(),
                           .controller_target_bps = session.sender().controller().target_bps(),
                       });
  PinnedRun run{.report_digest = Fnv1a(report.str())};
  const auto& telemetry = session.ran_uplink()->telemetry();
  for (std::size_t i = 1; i < telemetry.size(); ++i) {
    if (telemetry[i].slot_time - telemetry[i - 1].slot_time >= 100ms) ++run.silent_stretches;
  }
  return run;
}

TEST(SessionPinTest, CanonicalSessionReportsMatchTheBenchmarkPins) {
  // The first four entries of kPinnedSessionReports in
  // perfbench/cpp/pinned.hpp (sessions DeriveSeed(42, 0..3), 60 s each).
  constexpr std::uint64_t kPinned[] = {
      0xa37daf0c0477ab14ULL,
      0x0edd8994f6f24696ULL,
      0x1c01aa740350b924ULL,
      0xa11c0a49fafcf02dULL,
  };
  for (std::uint64_t i = 0; i < std::size(kPinned); ++i) {
    EXPECT_EQ(RunPinned(CanonicalConfig(sim::DeriveSeed(42, i)), 60s).report_digest,
              kPinned[i])
        << "session DeriveSeed(42, " << i << ")";
  }
}

TEST(SessionPinTest, MitigatedCheckpointedSessionMatchesTheSupervisedPin) {
  // An uninterrupted checkpointing run under closed-loop mitigation: the
  // TunableGrantPolicy + TrafficPredictorPolicy seam issues the grants.
  // It lands on the first kPinnedSupervised pair of
  // perfbench/cpp/pinned.hpp (the benchmark's checkpoint-free oracle).
  mitigation::control::MitigationRuntime runtime;
  resilience::RunPlan plan;
  plan.config = CanonicalConfig(sim::DeriveSeed(42, 0));
  plan.duration = 60s;
  plan.checkpoint_every = 5s;
  runtime.InstallConfigHooks(plan.config);
  plan.trace_sink = runtime.sink();
  plan.on_session = [&runtime](sim::Simulator& sim, app::Session& session) {
    runtime.BindSession(sim, session);
  };
  plan.report_appendix = [&runtime](std::ostream& os) { runtime.RenderLedger(os); };

  const resilience::RunOutcome out = resilience::CheckpointingDriver{plan}.Run();
  EXPECT_EQ(out.final_digest, 0x8659f31f8027bff9ULL);
  EXPECT_EQ(out.report_digest, 0x4a2bcec4adeaa418ULL);
  ASSERT_NE(runtime.controller(), nullptr);
  EXPECT_GT(runtime.controller()->actuations(), 0u) << "the grant seam was never driven";
}

TEST(SessionPinTest, HandoverSessionReportIsPinned) {
  // Mobility: the UE crosses a cell edge roughly every 2 s (±25%) and
  // loses its serving cell for 120 ms each time; every uplink slot in
  // that window is skipped. The cell carries no cross traffic, so
  // proactive grants fill every other slot and each handover shows as
  // one silent stretch on the control channel: nine in this run.
  app::SessionConfig config = CanonicalConfig(7);
  config.cross_traffic = net::CapacityTrace{0.0};
  config.channel.handover_interval = 2s;
  config.channel.handover_duration = 120ms;
  const PinnedRun run = RunPinned(config, 20s);
  EXPECT_EQ(run.silent_stretches, 9);
  EXPECT_EQ(run.report_digest, 0x9d9cbbb4925c6a82ULL);
}

}  // namespace
}  // namespace athena
