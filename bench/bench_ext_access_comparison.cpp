// Extension bench — the same call over four access technologies (§5.1:
// "All underlying networks introduce different artifacts that are of
// varying importance to the different classes of applications").
//
//   5G TDD   — slotted grants: delay quantized on the 2.5 ms grid, BSR
//              spreads, 10 ms HARQ steps
//   5G FDD   — denser uplink opportunities: better for sporadic packets,
//              narrower per-slot TBs for bursts
//   Wi-Fi    — contention: no grid at all, heavy-tailed access delay
//   LEO sat  — high smooth floor + periodic handover stalls
//
// For each: uplink delay CDF, the grid-quantization fraction (the Athena
// fingerprint that distinguishes slotted access), and receiver QoE.
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "core/clock_sync.hpp"

namespace {

using namespace athena;
using namespace std::chrono_literals;

struct Outcome {
  stats::Cdf owd_ms;
  double grid_fraction = 0.0;
  double bitrate_kbps = 0.0;
  double fps = 0.0;
  double m2e_p50 = 0.0;
  double m2e_p99 = 0.0;
};

Outcome Run(app::SessionConfig::Access access, bool fdd = false) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 72;
  config.access = access;
  if (access == app::SessionConfig::Access::k5G) {
    config.channel = ran::ChannelModel::FadingRadio();
    if (fdd) {
      config.cell = ran::RanConfig::FddLikeCell();
      config.cell.cell_ul_capacity_bps = 25e6;
    } else {
      config.cell.cell_ul_capacity_bps = 25e6;
    }
  }
  config.wifi.channel_load = 0.45;
  app::Session session{sim, config};
  session.Run(2min);

  Outcome out;
  const auto pairs = core::ClockSync::JoinCaptures(session.sender_capture().log().ToVector(),
                                                   session.core_capture().log().ToVector());
  // Quantization fingerprint: arrival-time *phase* concentration. On a
  // slotted uplink, arrivals land on the slot grid, so the arrival time
  // modulo 2.5 ms piles into one phase bin; contention-based access
  // spreads uniformly. (Per-packet OWD is never quantized — send times
  // are arbitrary — which is why the paper's Fig. 5 measures frame
  // spreads and Fig. 9 plots arrival timelines.)
  constexpr int kPhaseBins = 25;  // 0.1 ms resolution over the 2.5 ms grid
  std::array<std::size_t, kPhaseBins> phase_bins{};
  for (const auto& p : pairs) {
    out.owd_ms.Add(sim::ToMs(p.b_ts - p.a_ts));
    const auto phase_us = p.b_ts.us() % 2500;
    ++phase_bins[static_cast<std::size_t>(phase_us / 100)];
  }
  const auto mode = *std::max_element(phase_bins.begin(), phase_bins.end());
  out.grid_fraction =
      pairs.empty() ? 0.0 : static_cast<double>(mode) / static_cast<double>(pairs.size());
  out.bitrate_kbps = session.qoe().ReceiveBitrateKbps().Median();
  out.fps = session.qoe().FrameRateFps().Median();
  out.m2e_p50 = session.qoe().MouthToEarMs().Median();
  out.m2e_p99 = session.qoe().MouthToEarMs().P(99);
  return out;
}

}  // namespace

int main() {
  const auto tdd = Run(app::SessionConfig::Access::k5G, false);
  const auto fdd = Run(app::SessionConfig::Access::k5G, true);
  const auto wifi = Run(app::SessionConfig::Access::kWifiLike);
  const auto leo = Run(app::SessionConfig::Access::kLeoSat);

  bench::PrintCdfPanel("§5.1 extension — uplink one-way delay CDF (ms) by access technology",
                       {{"5G_TDD", &tdd.owd_ms},
                        {"5G_FDD", &fdd.owd_ms},
                        {"WiFi", &wifi.owd_ms},
                        {"LEO", &leo.owd_ms}});

  stats::PrintBanner(std::cout, "artifact fingerprints + QoE");
  stats::Table table{{"access", "owd p50 ms", "owd p99 ms", "arrival phase conc. %",
                      "bitrate kbps", "fps", "m2e p50 ms", "m2e p99 ms"}};
  auto row = [&](const char* name, const Outcome& o) {
    table.AddRow({name, stats::Fmt(o.owd_ms.Median(), 2), stats::Fmt(o.owd_ms.P(99), 1),
                  stats::Fmt(100 * o.grid_fraction, 1), stats::Fmt(o.bitrate_kbps, 0),
                  stats::Fmt(o.fps, 1), stats::Fmt(o.m2e_p50, 0),
                  stats::Fmt(o.m2e_p99, 0)});
  };
  row("5G TDD (paper cell)", tdd);
  row("5G FDD-like", fdd);
  row("Wi-Fi-like", wifi);
  row("LEO-satellite-like", leo);
  table.Print(std::cout);

  std::cout << "\nShape: only the slotted 5G uplinks show the grid fingerprint; Wi-Fi's\n"
               "delay is unquantized and heavy-tailed; LEO trades a high smooth floor\n"
               "for handover stalls — each technology needs its own cross-layer story,\n"
               "which is the paper's §5.1 argument for Athena as a blueprint.\n";
  return 0;
}
