// Tests for the Wi-Fi flavour of the Athena correlator.
#include <chrono>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "core/wifi_correlator.hpp"
#include "sim/simulator.hpp"

namespace athena::core {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

net::CaptureRecord Sent(net::PacketId id, sim::TimePoint ts, std::uint32_t size = 1200) {
  net::CaptureRecord r;
  r.packet_id = id;
  r.local_ts = ts;
  r.kind = net::PacketKind::kRtpVideo;
  r.size_bytes = size;
  r.set_rtp(net::RtpMeta{.frame_id = id * 2 + 1});
  return r;
}

net::CaptureRecord Egress(net::PacketId id, sim::TimePoint ts) {
  net::CaptureRecord r;
  r.packet_id = id;
  r.local_ts = ts;
  return r;
}

net::WifiAirtimeRecord Attempt(net::PacketId id, std::uint8_t attempt, sim::TimePoint start,
                               sim::Duration access, bool collided = false) {
  return net::WifiAirtimeRecord{
      .packet_id = id,
      .attempt = attempt,
      .contend_start = start,
      .access_wait = access,
      .tx_duration = 200us,
      .collided = collided,
  };
}

TEST(WifiCorrelatorTest, CleanPacketDecomposition) {
  WifiCorrelatorInput input;
  input.sender = {Sent(1, kEpoch + 1ms)};
  input.egress = {Egress(1, kEpoch + 1ms + 900us)};
  input.telemetry = {Attempt(1, 1, kEpoch + 1ms, 700us)};
  const auto data = WifiCorrelator::Correlate(input);
  ASSERT_EQ(data.packets.size(), 1u);
  const auto& p = data.packets[0];
  EXPECT_TRUE(p.delivered);
  EXPECT_EQ(p.attempts, 1);
  EXPECT_EQ(p.hol_wait, 0us);
  EXPECT_EQ(p.contention_wait, 700us);
  EXPECT_EQ(p.retry_overhead, 0us);
  EXPECT_EQ(p.primary_cause, WifiCause::kContention);
}

TEST(WifiCorrelatorTest, HolWaitMeasured) {
  WifiCorrelatorInput input;
  input.sender = {Sent(1, kEpoch + 1ms)};
  input.egress = {Egress(1, kEpoch + 6ms)};
  // The station only started contending for this packet 4 ms after send
  // (a previous packet held the queue).
  input.telemetry = {Attempt(1, 1, kEpoch + 5ms, 100us)};
  const auto data = WifiCorrelator::Correlate(input);
  const auto& p = data.packets[0];
  EXPECT_EQ(p.hol_wait, 4ms);
  EXPECT_EQ(p.primary_cause, WifiCause::kHolQueueing);
}

TEST(WifiCorrelatorTest, CollisionRetryAttribution) {
  WifiCorrelatorInput input;
  input.sender = {Sent(1, kEpoch + 1ms)};
  input.egress = {Egress(1, kEpoch + 9ms)};
  input.telemetry = {
      Attempt(1, 1, kEpoch + 1ms, 300us, /*collided=*/true),
      Attempt(1, 2, kEpoch + 4ms, 300us),
  };
  const auto data = WifiCorrelator::Correlate(input);
  const auto& p = data.packets[0];
  EXPECT_EQ(p.attempts, 2);
  EXPECT_EQ(p.primary_cause, WifiCause::kCollisionRetry);
  EXPECT_GT(p.retry_overhead, 3ms);  // the retry round-trip dominates
}

TEST(WifiCorrelatorTest, UndeliveredPacketStillAttributed) {
  WifiCorrelatorInput input;
  input.sender = {Sent(1, kEpoch + 1ms)};
  input.telemetry = {Attempt(1, 1, kEpoch + 1ms, 300us, true)};
  const auto data = WifiCorrelator::Correlate(input);
  const auto& p = data.packets[0];
  EXPECT_FALSE(p.delivered);
  EXPECT_EQ(p.attempts, 1);
}

TEST(WifiCorrelatorTest, UnmatchedTelemetryCounted) {
  WifiCorrelatorInput input;
  input.telemetry = {Attempt(99, 1, kEpoch, 100us)};
  const auto data = WifiCorrelator::Correlate(input);
  EXPECT_EQ(data.unmatched_telemetry, 1u);
}

TEST(WifiCorrelatorTest, CauseNames) {
  EXPECT_STREQ(ToString(WifiCause::kCollisionRetry), "collision-retry");
  EXPECT_STREQ(ToString(WifiCause::kHolQueueing), "hol-queueing");
}

TEST(WifiCorrelatorTest, EndToEndSessionAttribution) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 98;
  config.access = app::SessionConfig::Access::kWifiLike;
  config.wifi.channel_load = 0.5;
  config.wifi.collision_probability = 0.15;
  app::Session session{sim, config};
  session.Run(20s);

  const auto data = WifiCorrelator::Correlate(session.BuildWifiCorrelatorInput());
  ASSERT_GT(data.packets.size(), 2000u);

  std::size_t delivered = 0;
  std::size_t with_attempts = 0;
  std::map<WifiCause, std::size_t> causes;
  for (const auto& p : data.packets) {
    delivered += p.delivered ? 1 : 0;
    with_attempts += p.attempts > 0 ? 1 : 0;
    ++causes[p.primary_cause];
    if (p.delivered && p.attempts > 0) {
      // The decomposition never exceeds the total delay.
      EXPECT_LE(p.hol_wait + p.retry_overhead, p.total_delay + sim::Duration{1});
    }
  }
  // Nearly every captured packet matches telemetry (a few in flight at
  // shutdown) and the contention/collision causes both appear.
  EXPECT_GT(with_attempts, data.packets.size() - 50);
  EXPECT_GT(causes[WifiCause::kContention], 0u);
  EXPECT_GT(causes[WifiCause::kCollisionRetry], 0u);
  EXPECT_GT(delivered, data.packets.size() * 9 / 10);
}

}  // namespace
}  // namespace athena::core
