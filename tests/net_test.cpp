#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "net/capacity_trace.hpp"
#include "net/capture.hpp"
#include "net/clock.hpp"
#include "net/icmp.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace athena::net {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

Packet MakePacket(PacketId id, std::uint32_t size = 1000,
                  PacketKind kind = PacketKind::kGeneric) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  p.kind = kind;
  return p;
}

// ---------- Packet ----------

TEST(PacketTest, KindPredicates) {
  EXPECT_TRUE(MakePacket(1, 1, PacketKind::kRtpVideo).is_video());
  EXPECT_TRUE(MakePacket(1, 1, PacketKind::kRtpVideo).is_media());
  EXPECT_TRUE(MakePacket(1, 1, PacketKind::kRtpAudio).is_audio());
  EXPECT_FALSE(MakePacket(1, 1, PacketKind::kIcmpEcho).is_media());
}

TEST(PacketTest, KindAndLayerNames) {
  EXPECT_STREQ(ToString(PacketKind::kRtpVideo), "rtp-video");
  EXPECT_STREQ(ToString(PacketKind::kIcmpReply), "icmp-reply");
  EXPECT_STREQ(ToString(SvcLayer::kBase), "base");
  EXPECT_STREQ(ToString(SvcLayer::kLowFpsEnhancement), "low-fps-enh");
}

TEST(PacketTest, IdGeneratorIsMonotone) {
  PacketIdGenerator gen;
  const auto a = gen.Next();
  const auto b = gen.Next();
  EXPECT_LT(a, b);
  gen.Reset();
  EXPECT_EQ(gen.Next(), a);
}

// ---------- HostClock ----------

TEST(HostClockTest, OffsetShiftsLocalTime) {
  HostClock clock{2ms, 0.0};
  EXPECT_EQ(clock.ToLocal(kEpoch + 10ms), kEpoch + 12ms);
  EXPECT_EQ(clock.ToTrue(kEpoch + 12ms), kEpoch + 10ms);
}

TEST(HostClockTest, DriftGrowsWithTime) {
  HostClock clock{0ms, 100.0};  // 100 ppm
  const auto local = clock.ToLocal(kEpoch + 10s);
  EXPECT_EQ(local - (kEpoch + 10s), 1ms);  // 100 ppm of 10 s = 1 ms
}

TEST(HostClockTest, RoundTripIsStableWithoutDrift) {
  HostClock clock{-3500us, 0.0};
  const auto t = kEpoch + 123456us;
  EXPECT_EQ(clock.ToTrue(clock.ToLocal(t)), t);
}

// ---------- CapturePoint ----------

TEST(CapturePointTest, RecordsAndForwards) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap"};
  int forwarded = 0;
  cap.set_sink([&](const Packet&) { ++forwarded; });
  sim.ScheduleAfter(5ms, [&] { cap.OnPacket(MakePacket(1)); });
  sim.RunAll();
  EXPECT_EQ(forwarded, 1);
  ASSERT_EQ(cap.count(), 1u);
  EXPECT_EQ(cap.log()[0].packet_id, 1u);
  EXPECT_EQ(cap.log()[0].true_ts, kEpoch + 5ms);
}

TEST(CapturePointTest, LocalTimestampUsesHostClock) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap", HostClock{1ms, 0.0}};
  sim.ScheduleAfter(5ms, [&] { cap.OnPacket(MakePacket(1)); });
  sim.RunAll();
  EXPECT_EQ(cap.log()[0].local_ts, kEpoch + 6ms);
  EXPECT_EQ(cap.log()[0].true_ts, kEpoch + 5ms);
}

TEST(CapturePointTest, CopiesRtpMetadata) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap"};
  Packet p = MakePacket(1, 1200, PacketKind::kRtpVideo);
  p.rtp = RtpMeta{.frame_id = 77, .transport_seq = 5};
  cap.OnPacket(p);
  ASSERT_NE(cap.log()[0].rtp(), nullptr);
  EXPECT_EQ(cap.log()[0].rtp()->frame_id, 77u);
}

TEST(CapturePointTest, ClearEmptiesLog) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap"};
  cap.OnPacket(MakePacket(1));
  cap.Clear();
  EXPECT_EQ(cap.count(), 0u);
}

TEST(CapturePointTest, WorksWithoutSink) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap"};
  EXPECT_NO_THROW(cap.OnPacket(MakePacket(1)));
}

TEST(CapturePointTest, CopiesIcmpMetadata) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap"};
  Packet p = MakePacket(1, 64, PacketKind::kIcmpEcho);
  p.icmp = IcmpMeta{.probe_seq = 9, .echo_sent_at = kEpoch + 3ms};
  cap.OnPacket(p);
  ASSERT_NE(cap.log()[0].icmp(), nullptr);
  EXPECT_EQ(cap.log()[0].icmp()->probe_seq, 9u);
  EXPECT_EQ(cap.log()[0].icmp()->echo_sent_at, kEpoch + 3ms);
  EXPECT_EQ(cap.log()[0].rtp(), nullptr);
}

TEST(CaptureRecordTest, OneHeaderSlotHoldsRtpOrIcmp) {
  CaptureRecord r;
  EXPECT_EQ(r.rtp(), nullptr);
  EXPECT_EQ(r.icmp(), nullptr);
  r.set_rtp(RtpMeta{.frame_id = 4});
  ASSERT_NE(r.rtp(), nullptr);
  EXPECT_EQ(r.rtp()->frame_id, 4u);
  EXPECT_EQ(r.icmp(), nullptr);
  r.set_icmp(IcmpMeta{.probe_seq = 2, .echo_sent_at = kEpoch});
  EXPECT_EQ(r.rtp(), nullptr);
  ASSERT_NE(r.icmp(), nullptr);
  EXPECT_EQ(r.icmp()->probe_seq, 2u);
  r.clear_header();
  EXPECT_EQ(r.rtp(), nullptr);
  EXPECT_EQ(r.icmp(), nullptr);
}

TEST(CapturePointDeathTest, PacketCarryingRtpAndIcmpIsFatal) {
  sim::Simulator sim;
  CapturePoint cap{sim, "tap"};
  Packet p = MakePacket(1);
  p.rtp = RtpMeta{};
  p.icmp = IcmpMeta{};
  EXPECT_DEATH(cap.OnPacket(p), "ATHENA_CHECK failed");
}

// ---------- ChunkedLog ----------

/// Record `i` of a test log: every field distinct, headers rotating
/// through RTP, ICMP and none.
CaptureRecord Numbered(std::uint64_t i) {
  CaptureRecord r;
  r.packet_id = i + 1;
  r.local_ts = kEpoch + sim::Duration{static_cast<std::int64_t>(3 * i + 1)};
  r.true_ts = kEpoch + sim::Duration{static_cast<std::int64_t>(3 * i)};
  r.size_bytes = static_cast<std::uint32_t>(40 + i % 1400);
  r.flow = static_cast<FlowId>(i % 7);
  r.kind = i % 3 == 1 ? PacketKind::kIcmpEcho : PacketKind::kRtpVideo;
  if (i % 3 == 0) {
    r.set_rtp(RtpMeta{.frame_id = i / 3,
                      .ssrc = 0x10,
                      .media_ts = static_cast<std::uint32_t>(90 * i),
                      .packets_in_frame = 3,
                      .packet_index_in_frame = static_cast<std::uint32_t>(i % 3),
                      .seq = static_cast<std::uint16_t>(i),
                      .transport_seq = static_cast<std::uint16_t>(i + 5),
                      .marker = i % 2 == 0,
                      .layer = SvcLayer::kBase});
  } else if (i % 3 == 1) {
    r.set_icmp(IcmpMeta{.probe_seq = static_cast<std::uint32_t>(i),
                        .echo_sent_at = r.true_ts});
  }
  return r;
}

void ExpectSameRecord(const CaptureRecord& got, const CaptureRecord& want) {
  EXPECT_EQ(got.packet_id, want.packet_id);
  EXPECT_EQ(got.local_ts, want.local_ts);
  EXPECT_EQ(got.true_ts, want.true_ts);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.kind, want.kind);
  ASSERT_EQ(got.rtp() != nullptr, want.rtp() != nullptr);
  if (want.rtp() != nullptr) {
    EXPECT_EQ(got.rtp()->frame_id, want.rtp()->frame_id);
    EXPECT_EQ(got.rtp()->ssrc, want.rtp()->ssrc);
    EXPECT_EQ(got.rtp()->media_ts, want.rtp()->media_ts);
    EXPECT_EQ(got.rtp()->packets_in_frame, want.rtp()->packets_in_frame);
    EXPECT_EQ(got.rtp()->packet_index_in_frame, want.rtp()->packet_index_in_frame);
    EXPECT_EQ(got.rtp()->seq, want.rtp()->seq);
    EXPECT_EQ(got.rtp()->transport_seq, want.rtp()->transport_seq);
    EXPECT_EQ(got.rtp()->marker, want.rtp()->marker);
    EXPECT_EQ(got.rtp()->layer, want.rtp()->layer);
  }
  ASSERT_EQ(got.icmp() != nullptr, want.icmp() != nullptr);
  if (want.icmp() != nullptr) {
    EXPECT_EQ(got.icmp()->probe_seq, want.icmp()->probe_seq);
    EXPECT_EQ(got.icmp()->echo_sent_at, want.icmp()->echo_sent_at);
  }
}

TEST(ChunkedLogTest, MatchesAVectorModelAtEveryBlockBoundary) {
  constexpr std::size_t kBlock = CaptureLog::kBlock;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                              37 * kBlock + 5}) {
    SCOPED_TRACE(n);
    CaptureLog log;
    std::vector<CaptureRecord> model;
    for (std::size_t i = 0; i < n; ++i) {
      log.push_back(Numbered(i));
      model.push_back(Numbered(i));
      // At most one partly filled block is ever unused.
      ASSERT_LT(log.capacity() - log.size(), kBlock);
    }
    ASSERT_EQ(log.size(), n);
    EXPECT_EQ(log.capacity(), (n + kBlock - 1) / kBlock * kBlock);

    for (std::size_t i = 0; i < n; ++i) ExpectSameRecord(log[i], model[i]);
    std::size_t visited = 0;
    for (const CaptureRecord& r : log) ExpectSameRecord(r, model[visited++]);
    EXPECT_EQ(visited, n);

    const std::vector<CaptureRecord> copy = log.ToVector();
    ASSERT_EQ(copy.size(), n);
    for (std::size_t i = 0; i < n; ++i) ExpectSameRecord(copy[i], model[i]);
  }
}

TEST(ChunkedLogTest, ClearReleasesEveryBlock) {
  CaptureLog log;
  for (std::uint64_t i = 0; i < 3 * CaptureLog::kBlock; ++i) log.push_back(Numbered(i));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.capacity(), 0u);
  EXPECT_EQ(log.begin(), log.end());
  log.push_back(Numbered(7));
  ASSERT_EQ(log.size(), 1u);
  ExpectSameRecord(log[0], Numbered(7));
}

// ---------- CapacityTrace ----------

TEST(CapacityTraceTest, StepFunctionLookup) {
  CapacityTrace t;
  t.Append(kEpoch, 10e6);
  t.Append(kEpoch + 5s, 20e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 1s), 10e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 5s), 20e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 100s), 20e6);
}

TEST(CapacityTraceTest, ZeroBeforeFirstStep) {
  CapacityTrace t;
  t.Append(kEpoch + 1s, 10e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch), 0.0);
}

TEST(CapacityTraceTest, ConstantConstructor) {
  const CapacityTrace t{5e6};
  EXPECT_DOUBLE_EQ(t.At(kEpoch), 5e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 100s), 5e6);
}

TEST(CapacityTraceTest, MeanOverWeightsByTime) {
  CapacityTrace t;
  t.Append(kEpoch, 10e6);
  t.Append(kEpoch + 1s, 30e6);
  // [0, 2 s): 1 s at 10 Mbps + 1 s at 30 Mbps = 20 Mbps mean.
  EXPECT_NEAR(t.MeanOver(kEpoch, kEpoch + 2s), 20e6, 1.0);
}

TEST(CapacityTraceTest, PaperScheduleHasFourPhases) {
  const auto t = CapacityTrace::PaperCrossTrafficSchedule(5min);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 1min), 0.0);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 6min), 14e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 11min), 16e6);
  EXPECT_DOUBLE_EQ(t.At(kEpoch + 16min), 18e6);
}

// ---------- FixedDelayLink ----------

TEST(FixedDelayLinkTest, DeliversAfterDelay) {
  sim::Simulator sim;
  FixedDelayLink link{sim, {.delay = 10ms}};
  sim::TimePoint delivered_at;
  link.set_sink([&](const Packet&) { delivered_at = sim.Now(); });
  link.Send(MakePacket(1));
  sim.RunAll();
  EXPECT_EQ(delivered_at, kEpoch + 10ms);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(FixedDelayLinkTest, PreservesFifoUnderJitter) {
  sim::Simulator sim;
  FixedDelayLink link{sim, {.delay = 10ms, .jitter_stddev = 5ms}, sim::Rng{3}};
  std::vector<PacketId> order;
  link.set_sink([&](const Packet& p) { order.push_back(p.id); });
  for (PacketId i = 1; i <= 50; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 100},
                      [&link, i] { link.Send(MakePacket(i)); });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
}

TEST(FixedDelayLinkTest, LossDropsPackets) {
  sim::Simulator sim;
  FixedDelayLink link{sim, {.delay = 1ms, .loss_probability = 1.0}};
  int received = 0;
  link.set_sink([&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) link.Send(MakePacket(i + 1));
  sim.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.dropped(), 10u);
}

// ---------- RateLimitedLink ----------

TEST(RateLimitedLinkTest, SerializationDelayMatchesRate) {
  sim::Simulator sim;
  // 8 Mbps: a 1000-byte packet takes 1 ms to serialize.
  RateLimitedLink link{sim, {.capacity = CapacityTrace{8e6}, .propagation = 0ms}};
  sim::TimePoint delivered_at;
  link.set_sink([&](const Packet&) { delivered_at = sim.Now(); });
  link.Send(MakePacket(1, 1000));
  sim.RunAll();
  EXPECT_EQ(delivered_at, kEpoch + 1ms);
}

TEST(RateLimitedLinkTest, QueueingDelaysBackToBackPackets) {
  sim::Simulator sim;
  RateLimitedLink link{sim, {.capacity = CapacityTrace{8e6}, .propagation = 0ms}};
  std::vector<sim::TimePoint> times;
  link.set_sink([&](const Packet&) { times.push_back(sim.Now()); });
  link.Send(MakePacket(1, 1000));
  link.Send(MakePacket(2, 1000));
  link.Send(MakePacket(3, 1000));
  sim.RunAll();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], kEpoch + 1ms);
  EXPECT_EQ(times[1], kEpoch + 2ms);
  EXPECT_EQ(times[2], kEpoch + 3ms);
}

TEST(RateLimitedLinkTest, PropagationAddsConstant) {
  sim::Simulator sim;
  RateLimitedLink link{sim, {.capacity = CapacityTrace{8e6}, .propagation = 15ms}};
  sim::TimePoint delivered_at;
  link.set_sink([&](const Packet&) { delivered_at = sim.Now(); });
  link.Send(MakePacket(1, 1000));
  sim.RunAll();
  EXPECT_EQ(delivered_at, kEpoch + 16ms);
}

TEST(RateLimitedLinkTest, DropTailOnFullQueue) {
  sim::Simulator sim;
  RateLimitedLink link{
      sim, {.capacity = CapacityTrace{8e6}, .propagation = 0ms, .max_queue_packets = 2}};
  int received = 0;
  link.set_sink([&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) link.Send(MakePacket(i + 1, 1000));
  sim.RunAll();
  EXPECT_GT(link.dropped(), 0u);
  EXPECT_LT(received, 10);
}

TEST(RateLimitedLinkTest, ZeroCapacityParksUntilStep) {
  sim::Simulator sim;
  CapacityTrace trace;
  trace.Append(kEpoch, 0.0);
  trace.Append(kEpoch + 50ms, 8e6);
  RateLimitedLink link{sim, {.capacity = trace, .propagation = 0ms}};
  sim::TimePoint delivered_at;
  link.set_sink([&](const Packet&) { delivered_at = sim.Now(); });
  link.Send(MakePacket(1, 1000));
  sim.RunAll();
  EXPECT_GE(delivered_at, kEpoch + 51ms);  // waits out the dead interval
}

TEST(RateLimitedLinkTest, QueueDepthTracksBacklog) {
  sim::Simulator sim;
  RateLimitedLink link{sim, {.capacity = CapacityTrace{8e6}, .propagation = 0ms}};
  link.set_sink([](const Packet&) {});
  for (int i = 0; i < 5; ++i) link.Send(MakePacket(i + 1, 1000));
  EXPECT_EQ(link.queue_depth(), 5u);  // head in service + 4 queued
  sim.RunAll();
  EXPECT_EQ(link.queue_depth(), 0u);
}

TEST(CapacityTraceTest, MeanOverDegenerateRange) {
  const CapacityTrace t{5e6};
  EXPECT_DOUBLE_EQ(t.MeanOver(kEpoch + 1s, kEpoch + 1s), 5e6);  // falls back to At()
}

// ---------- ICMP ----------

TEST(IcmpTest, ProbesAtConfiguredInterval) {
  sim::Simulator sim;
  PacketIdGenerator ids;
  IcmpProber prober{sim, {.interval = 20ms}, ids};
  int sent = 0;
  prober.set_outbound([&](const Packet& p) {
    EXPECT_EQ(p.kind, PacketKind::kIcmpEcho);
    ++sent;
  });
  prober.Start();
  sim.RunUntil(kEpoch + 99ms);
  prober.Stop();
  EXPECT_EQ(sent, 5);  // t = 0, 20, 40, 60, 80
}

TEST(IcmpTest, RoundTripMeasuresPathDelay) {
  sim::Simulator sim;
  PacketIdGenerator ids;
  IcmpProber prober{sim, {.interval = 20ms}, ids};
  IcmpResponder responder{sim};
  FixedDelayLink out{sim, {.delay = 10ms}};
  FixedDelayLink back{sim, {.delay = 10ms}};

  prober.set_outbound(out.AsHandler());
  out.set_sink(responder.AsHandler());
  responder.set_return_path(back.AsHandler());
  back.set_sink([&](const Packet& p) { prober.OnReply(p); });

  prober.Start();
  sim.RunUntil(kEpoch + 100ms);
  prober.Stop();

  ASSERT_GE(prober.results().size(), 4u);
  for (const auto& r : prober.results()) {
    EXPECT_EQ(r.rtt, 20ms);
  }
}

TEST(IcmpTest, ResponderIgnoresNonEcho) {
  sim::Simulator sim;
  IcmpResponder responder{sim};
  int replies = 0;
  responder.set_return_path([&](const Packet&) { ++replies; });
  responder.OnPacket(MakePacket(1, 100, PacketKind::kRtpVideo));
  sim.RunAll();
  EXPECT_EQ(replies, 0);
}

TEST(IcmpTest, ResponderTurnaroundDelay) {
  sim::Simulator sim;
  IcmpResponder responder{sim, 2ms};
  sim::TimePoint replied_at;
  responder.set_return_path([&](const Packet&) { replied_at = sim.Now(); });
  Packet echo = MakePacket(1, 64, PacketKind::kIcmpEcho);
  echo.icmp = IcmpMeta{.probe_seq = 0, .echo_sent_at = kEpoch};
  responder.OnPacket(echo);
  sim.RunAll();
  EXPECT_EQ(replied_at, kEpoch + 2ms);
}

TEST(IcmpTest, ReplyCarriesProbeSeq) {
  sim::Simulator sim;
  PacketIdGenerator ids;
  IcmpProber prober{sim, {}, ids};
  IcmpResponder responder{sim};
  prober.set_outbound(responder.AsHandler());
  responder.set_return_path([&](const Packet& p) { prober.OnReply(p); });
  prober.Start();
  sim.RunUntil(kEpoch + 45ms);
  prober.Stop();
  ASSERT_GE(prober.results().size(), 2u);
  EXPECT_EQ(prober.results()[0].seq, 0u);
  EXPECT_EQ(prober.results()[1].seq, 1u);
}

}  // namespace
}  // namespace athena::net
