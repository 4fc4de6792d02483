// Tests for the §5.1 alternative-access models (Wi-Fi-like contention,
// LEO-satellite-like path) and their integration into the session.
#include <chrono>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "core/analyzer.hpp"
#include "core/clock_sync.hpp"
#include "core/correlator.hpp"
#include "net/wireless_links.hpp"
#include "sim/simulator.hpp"
#include "stats/cdf.hpp"

namespace athena::net {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

Packet MakePacket(PacketId id, std::uint32_t size = 1200) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  p.kind = PacketKind::kRtpVideo;
  return p;
}

// ---------- WifiLikeLink ----------

TEST(WifiLinkTest, DeliversAllWithoutCollisions) {
  sim::Simulator sim;
  WifiLikeLink::Config config;
  config.collision_probability = 0.0;
  WifiLikeLink wifi{sim, config, sim::Rng{1}};
  int received = 0;
  wifi.set_sink([&](const Packet&) { ++received; });
  for (PacketId i = 1; i <= 100; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 5000},
                      [&wifi, i] { wifi.Send(MakePacket(i)); });
  }
  sim.RunAll();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(wifi.collisions(), 0u);
}

TEST(WifiLinkTest, PreservesFifo) {
  sim::Simulator sim;
  WifiLikeLink wifi{sim, {}, sim::Rng{2}};
  std::vector<PacketId> order;
  wifi.set_sink([&](const Packet& p) { order.push_back(p.id); });
  for (PacketId i = 1; i <= 60; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 2000},
                      [&wifi, i] { wifi.Send(MakePacket(i)); });
  }
  sim.RunAll();
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
}

TEST(WifiLinkTest, LoadIncreasesDelay) {
  auto median_delay = [](double load) {
    sim::Simulator sim;
    WifiLikeLink::Config config;
    config.channel_load = load;
    config.collision_probability = 0.0;
    WifiLikeLink wifi{sim, config, sim::Rng{3}};
    stats::Cdf delays;
    std::unordered_map<PacketId, sim::TimePoint> sent;
    wifi.set_sink([&](const Packet& p) { delays.Add(sim::ToMs(sim.Now() - sent[p.id])); });
    for (PacketId i = 1; i <= 300; ++i) {
      sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 10'000}, [&, i] {
        sent[i] = sim.Now();
        wifi.Send(MakePacket(i));
      });
    }
    sim.RunAll();
    return delays.Median();
  };
  EXPECT_LT(median_delay(0.1), median_delay(0.7));
}

TEST(WifiLinkTest, CollisionsCountAndRetryDelays) {
  sim::Simulator sim;
  WifiLikeLink::Config config;
  config.collision_probability = 0.5;
  WifiLikeLink wifi{sim, config, sim::Rng{4}};
  int received = 0;
  wifi.set_sink([&](const Packet&) { ++received; });
  for (PacketId i = 1; i <= 100; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 20'000},
                      [&wifi, i] { wifi.Send(MakePacket(i)); });
  }
  sim.RunAll();
  EXPECT_GT(wifi.collisions(), 20u);
  EXPECT_GT(received, 60);  // retries recover most packets
}

TEST(WifiLinkTest, NoSlotQuantization) {
  // The defining contrast with TDD: Wi-Fi delays do NOT sit on a grid.
  sim::Simulator sim;
  WifiLikeLink wifi{sim, {}, sim::Rng{5}};
  std::vector<double> delays_ms;
  std::unordered_map<PacketId, sim::TimePoint> sent;
  wifi.set_sink(
      [&](const Packet& p) { delays_ms.push_back(sim::ToMs(sim.Now() - sent[p.id])); });
  for (PacketId i = 1; i <= 200; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 15'000}, [&, i] {
      sent[i] = sim.Now();
      wifi.Send(MakePacket(i));
    });
  }
  sim.RunAll();
  std::size_t on_grid = 0;
  for (const double d : delays_ms) {
    const double nearest = std::round(d / 2.5) * 2.5;
    if (std::abs(d - nearest) < 0.1) ++on_grid;
  }
  EXPECT_LT(static_cast<double>(on_grid) / static_cast<double>(delays_ms.size()), 0.3);
}

// ---------- LeoSatLink ----------

TEST(LeoSatTest, PropagationWithinSwing) {
  sim::Simulator sim;
  LeoSatLink leo{sim, {}};
  const auto base = LeoSatLink::Config{}.base_propagation;
  const auto swing = LeoSatLink::Config{}.propagation_swing;
  for (int i = 0; i < 100; ++i) {
    const auto prop = leo.PropagationAt(kEpoch + sim::Duration{i * 377'000});
    EXPECT_GE(prop, base);
    EXPECT_LE(prop, base + swing);
  }
}

TEST(LeoSatTest, PropagationIsPeriodic) {
  sim::Simulator sim;
  LeoSatLink leo{sim, {}};
  const auto period = LeoSatLink::Config{}.pass_period;
  const auto t = kEpoch + 3'700ms;
  EXPECT_EQ(leo.PropagationAt(t), leo.PropagationAt(t + period));
}

TEST(LeoSatTest, HandoverWindowDetected) {
  sim::Simulator sim;
  LeoSatLink leo{sim, {}};
  EXPECT_TRUE(leo.InOutage(kEpoch + 50ms));    // inside the 180 ms window
  EXPECT_FALSE(leo.InOutage(kEpoch + 500ms));  // well past it
}

TEST(LeoSatTest, PacketsDuringOutageAreParkedNotLost) {
  sim::Simulator sim;
  LeoSatLink leo{sim, {}};
  sim::TimePoint delivered_at;
  leo.set_sink([&](const Packet&) { delivered_at = sim.Now(); });
  sim.ScheduleAfter(50ms, [&] { leo.Send(MakePacket(1)); });  // mid-outage
  sim.RunAll();
  // Released at 180 ms, plus propagation.
  EXPECT_GT(delivered_at, kEpoch + 180ms);
  EXPECT_EQ(leo.delivered(), 1u);
}

TEST(LeoSatTest, FifoAcrossOutages) {
  sim::Simulator sim;
  LeoSatLink leo{sim, {}};
  std::vector<PacketId> order;
  leo.set_sink([&](const Packet& p) { order.push_back(p.id); });
  for (PacketId i = 1; i <= 50; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 9'000},
                      [&leo, i] { leo.Send(MakePacket(i)); });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
}

// ---------- sessions over the alternative access networks ----------

TEST(AltAccessSessionTest, WifiSessionDelivers) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.access = app::SessionConfig::Access::kWifiLike;
  config.wifi.channel_load = 0.4;
  app::Session session{sim, config};
  session.Run(10s);
  EXPECT_GT(session.qoe().video_frames_rendered(), 200u);
  EXPECT_EQ(session.ran_uplink(), nullptr);
}

TEST(AltAccessSessionTest, LeoSessionSurvivesHandovers) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.access = app::SessionConfig::Access::kLeoSat;
  app::Session session{sim, config};
  session.Run(40s);  // spans two handovers
  EXPECT_GT(session.qoe().video_frames_rendered(), 800u);
  // Handovers park packets rather than dropping them: delivery stays
  // near-complete. The first handover anchors the playout clock with
  // ~180 ms of useless slack, which the jitter buffer's tightening
  // reclaims once a clean window passes.
  EXPECT_GT(session.qoe().VideoDeliveryRatio(), 0.95);
  EXPECT_GE(session.receiver().video_jitter_buffer().anchor_tightenings(), 1u);
}

TEST(AltAccessSessionTest, ArtifactProfilesDiffer) {
  // The §5.1 thesis: each technology imprints a *different* artifact on
  // the same call. Compare uplink delay CDF shapes.
  auto run = [](app::SessionConfig::Access access) {
    sim::Simulator sim;
    app::SessionConfig config;
    config.seed = 71;
    config.access = access;
    app::Session session{sim, config};
    session.Run(20s);
    const auto pairs = core::ClockSync::JoinCaptures(session.sender_capture().log().ToVector(),
                                                     session.core_capture().log().ToVector());
    stats::Cdf owd;
    for (const auto& p : pairs) owd.Add(sim::ToMs(p.b_ts - p.a_ts));
    return owd;
  };
  const auto fiveg = run(app::SessionConfig::Access::k5G);
  const auto wifi = run(app::SessionConfig::Access::kWifiLike);
  const auto leo = run(app::SessionConfig::Access::kLeoSat);
  // LEO: high floor (propagation); Wi-Fi: low floor, no grid; 5G: slotted.
  EXPECT_GT(leo.Min(), 20.0);
  EXPECT_LT(wifi.Min(), 5.0);
  EXPECT_GT(leo.Median(), wifi.Median());
  EXPECT_GT(leo.Median(), fiveg.Median());
}

}  // namespace
}  // namespace athena::net
