// Property-based tests: invariants swept across seeds and configurations
// with parameterized gtest. These pin down the *structural* claims of the
// paper — grid quantization, 10 ms retransmission arithmetic, byte
// conservation — rather than single scenarios.
#include <chrono>
#include <tuple>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "core/analyzer.hpp"
#include "core/correlator.hpp"
#include "sim/simulator.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

// ---------- RAN timing invariants across seeds × cell configs ----------

enum class CellKind { kPaper, kNoProactive, kFdd };

class RanTimingProperty : public ::testing::TestWithParam<std::tuple<std::uint64_t, CellKind>> {
 protected:
  static ran::RanConfig Cell(CellKind kind) {
    switch (kind) {
      case CellKind::kPaper: return ran::RanConfig::PaperCell();
      case CellKind::kNoProactive: return ran::RanConfig::PaperCellNoProactive();
      case CellKind::kFdd: return ran::RanConfig::FddLikeCell();
    }
    return ran::RanConfig::PaperCell();
  }
};

TEST_P(RanTimingProperty, DeliveriesOnSlotGridAndFifo) {
  const auto [seed, kind] = GetParam();
  const auto cell = Cell(kind);

  sim::Simulator sim;
  ran::RanUplink ran{sim, cell, ran::ChannelModel{{.base_bler = 0.1}, sim::Rng{seed}},
                     ran::CrossTraffic::Idle(sim::Rng{seed + 1})};
  std::vector<std::pair<net::PacketId, sim::TimePoint>> deliveries;
  ran.set_core_sink([&](const net::Packet& p) { deliveries.emplace_back(p.id, sim.Now()); });
  ran.Start();

  sim::Rng traffic{seed + 2};
  sim::Duration t{0};
  for (net::PacketId id = 1; id <= 120; ++id) {
    t += sim::Duration{traffic.UniformInt(100, 9'000)};
    const auto bytes = static_cast<std::uint32_t>(traffic.UniformInt(100, 2'000));
    sim.ScheduleAt(kEpoch + t, [&ran, id, bytes, &sim] {
      net::Packet p;
      p.id = id;
      p.kind = net::PacketKind::kRtpVideo;
      p.size_bytes = bytes;
      p.created_at = sim.Now();
      ran.SendFromUe(p);
    });
  }
  sim.RunUntil(kEpoch + 10s);

  EXPECT_GT(deliveries.size(), 110u);  // a few may be lost to HARQ drops
  sim::TimePoint prev = kEpoch;
  for (const auto& [id, at] : deliveries) {
    // On the UL slot grid (modulo the constant gNB→core hop).
    const auto on_air = at - cell.gnb_to_core_delay;
    EXPECT_EQ(on_air.us() % cell.ul_slot_period.count(), 0);
    // FIFO at the core.
    EXPECT_GE(at, prev);
    prev = at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCells, RanTimingProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(CellKind::kPaper, CellKind::kNoProactive,
                                         CellKind::kFdd)));

// ---------- Retransmission arithmetic across BLER levels ----------

class RtxArithmeticProperty : public ::testing::TestWithParam<double> {};

TEST_P(RtxArithmeticProperty, InflationIsMultipleOfRtxDelay) {
  const double bler = GetParam();
  const auto cell = ran::RanConfig::PaperCell();

  sim::Simulator sim;
  ran::RanUplink ran{sim, cell,
                     ran::ChannelModel{{.base_bler = bler, .rtx_bler_factor = 1.0},
                                       sim::Rng{7}},
                     ran::CrossTraffic::Idle(sim::Rng{8})};
  ran.set_core_sink([](const net::Packet&) {});
  ran.Start();
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(kEpoch + sim::Duration{i * 20'000 + 700}, [&ran, i, &sim] {
      net::Packet p;
      p.id = static_cast<net::PacketId>(i + 1);
      p.kind = net::PacketKind::kRtpVideo;
      p.size_bytes = 1000;
      p.created_at = sim.Now();
      ran.SendFromUe(p);
    });
  }
  sim.RunUntil(kEpoch + 5s);

  // Validate on telemetry: every successful chain decodes at
  // first_tx + k × rtx_delay (§3.2: inflation "by multiples of 10 ms").
  std::map<ran::TbId, sim::TimePoint> first_tx;
  std::size_t rtx_chains = 0;
  for (const auto& tb : ran.telemetry()) {
    if (tb.harq_round == 0) first_tx[tb.chain_id] = tb.slot_time;
    if (tb.crc_ok) {
      const auto inflation = tb.slot_time - first_tx.at(tb.chain_id);
      EXPECT_EQ(inflation.count() % cell.rtx_delay.count(), 0);
      EXPECT_EQ(inflation, sim::Duration{tb.harq_round * cell.rtx_delay.count()});
      if (tb.harq_round > 0) ++rtx_chains;
    }
  }
  if (bler >= 0.2) EXPECT_GT(rtx_chains, 0u);
}

INSTANTIATE_TEST_SUITE_P(BlerSweep, RtxArithmeticProperty,
                         ::testing::Values(0.0, 0.1, 0.2, 0.35, 0.5));

// ---------- Correlator exactness across seeds × BLER ----------

class CorrelatorExactnessProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(CorrelatorExactnessProperty, MappingMatchesTruthAndConservesBytes) {
  const auto [seed, bler] = GetParam();
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = seed;
  config.channel.base_bler = bler;
  app::Session session{sim, config};
  session.Run(8s);

  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  EXPECT_EQ(data.unmatched_tb_bytes, 0u);

  std::unordered_map<net::PacketId, std::vector<ran::TbId>> truth;
  for (const auto& t : session.ran_uplink()->truth()) {
    for (const auto& seg : t.segments) truth[seg.packet_id].push_back(t.chain_id);
  }
  for (const auto& p : data.packets) {
    if (p.tb_chains.empty()) continue;
    ASSERT_TRUE(truth.count(p.packet_id));
    EXPECT_EQ(p.tb_chains, truth.at(p.packet_id));
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndBler, CorrelatorExactnessProperty,
                         ::testing::Combine(::testing::Values(21u, 22u, 23u),
                                            ::testing::Values(0.0, 0.15, 0.3)));

// ---------- Delay-spread quantization across seeds ----------

class SpreadQuantizationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpreadQuantizationProperty, FrameSpreadSitsOnUlSlotGrid) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = GetParam();
  app::Session session{sim, config};
  session.Run(8s);
  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  EXPECT_GT(core::Analyzer::SpreadGridFraction(data, 2500us, 100us), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpreadQuantizationProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

// ---------- Jitter buffer invariants across jitter levels ----------

class JitterBufferProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(JitterBufferProperty, PlayoutMonotoneAndNoDuplicates) {
  const auto [seed, jitter_ms] = GetParam();
  sim::Simulator sim;
  media::JitterBuffer jb{sim, media::JitterBuffer::Config{}};
  std::vector<media::RenderedFrame> rendered;
  jb.set_render_callback([&](const media::RenderedFrame& f) { rendered.push_back(f); });

  sim::Rng rng{seed};
  for (int i = 0; i < 200; ++i) {
    const auto jitter = sim::Duration{rng.UniformInt(0, jitter_ms * 1000)};
    const auto at = kEpoch + sim::Duration{i * 33'000} + jitter;
    sim.ScheduleAt(at, [&jb, i, &sim] {
      net::Packet p;
      p.id = static_cast<net::PacketId>(i + 1);
      p.kind = net::PacketKind::kRtpVideo;
      p.size_bytes = 1200;
      p.rtp = net::RtpMeta{.frame_id = static_cast<std::uint64_t>(i) * 2 + 1,
                           .media_ts = static_cast<std::uint32_t>(i) * 2970,
                           .packets_in_frame = 1,
                           .packet_index_in_frame = 0,
                           .marker = true};
      (void)sim;
      jb.OnPacket(p);
    });
  }
  sim.RunAll();

  EXPECT_EQ(rendered.size(), 200u);
  std::set<std::uint64_t> seen;
  sim::TimePoint prev = kEpoch;
  for (const auto& f : rendered) {
    EXPECT_TRUE(seen.insert(f.frame_id).second) << "duplicate render";
    EXPECT_GE(f.rendered_at, prev);
    EXPECT_GE(f.rendered_at, f.completed_at - sim::Duration{1});
    prev = f.rendered_at;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndJitter, JitterBufferProperty,
                         ::testing::Combine(::testing::Values(41u, 42u),
                                            ::testing::Values(0, 5, 20, 60)));

// ---------- GCC convergence across bottleneck capacities ----------

class GccConvergenceProperty : public ::testing::TestWithParam<double> {};

TEST_P(GccConvergenceProperty, TracksEmulatedBottleneck) {
  const double capacity_bps = GetParam();
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 51;
  config.access = app::SessionConfig::Access::kEmulated;
  config.emulated_capacity = net::CapacityTrace{capacity_bps};
  config.icmp_enabled = false;
  app::Session session{sim, config};
  session.Run(40s);

  const double target = session.sender().controller().target_bps();
  // After 40 s the delay-based controller sits in the vicinity of the
  // bottleneck: above half, not more than ~1.6× (transient probing).
  EXPECT_GT(target, 0.4 * capacity_bps);
  EXPECT_LT(target, 1.7 * capacity_bps);
  // And the receiver actually renders video.
  EXPECT_GT(session.qoe().video_frames_rendered(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, GccConvergenceProperty,
                         ::testing::Values(7e5, 1.2e6, 2.5e6));

// ---------- Cdf quantile ordering on random data ----------

class CdfOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfOrderProperty, QuantilesAreOrdered) {
  sim::Rng rng{GetParam()};
  stats::Cdf cdf;
  for (int i = 0; i < 1000; ++i) cdf.Add(rng.LogNormal(1.0, 1.5));
  EXPECT_LE(cdf.Min(), cdf.P(25));
  EXPECT_LE(cdf.P(25), cdf.P(50));
  EXPECT_LE(cdf.P(50), cdf.P(75));
  EXPECT_LE(cdf.P(75), cdf.P(95));
  EXPECT_LE(cdf.P(95), cdf.Max());
  // ECDF at the median is ~0.5.
  EXPECT_NEAR(cdf.FractionAtOrBelow(cdf.Median()), 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfOrderProperty, ::testing::Values(61u, 62u, 63u, 64u));

}  // namespace
}  // namespace athena
