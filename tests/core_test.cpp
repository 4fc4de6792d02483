#include <chrono>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "core/analyzer.hpp"
#include "core/clock_sync.hpp"
#include "core/correlator.hpp"
#include "core/overuse_audit.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"

#include <sstream>

namespace athena::core {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

/// A capture record carrying only what the joins read.
net::CaptureRecord Captured(net::PacketId id, sim::TimePoint local_ts) {
  net::CaptureRecord r;
  r.packet_id = id;
  r.local_ts = local_ts;
  return r;
}

// ---------- ClockSync ----------

TEST(ClockSyncTest, ExchangeOffsetRecoveredOnSymmetricPath) {
  // B runs 3 ms ahead of A; path delay 10 ms each way.
  std::vector<ClockSync::ExchangeSample> samples;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = kEpoch + sim::Duration{i * 100'000};
    samples.push_back({.t0 = t0,
                       .t1 = t0 + 10ms + 3ms,
                       .t2 = t0 + 11ms + 3ms,
                       .t3 = t0 + 21ms});
  }
  const auto offset = ClockSync::OffsetFromExchanges(samples);
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, 3ms);
}

TEST(ClockSyncTest, ExchangeMedianRejectsOutliers) {
  std::vector<ClockSync::ExchangeSample> samples;
  for (int i = 0; i < 10; ++i) {
    const auto t0 = kEpoch + sim::Duration{i * 100'000};
    // One wildly asymmetric sample (slow forward, normal return).
    const auto fwd = (i == 3) ? 80ms : 10ms;
    const auto t1 = t0 + fwd + 3ms;   // B stamps with +3 ms offset
    const auto t2 = t1 + 1ms;         // B's turnaround
    const auto t3 = t2 - 3ms + 10ms;  // back on A's clock after 10 ms
    samples.push_back({.t0 = t0, .t1 = t1, .t2 = t2, .t3 = t3});
  }
  const auto offset = ClockSync::OffsetFromExchanges(samples);
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, 3ms);
}

TEST(ClockSyncTest, EmptyExchangesGiveNothing) {
  EXPECT_FALSE(ClockSync::OffsetFromExchanges({}).has_value());
}

TEST(ClockSyncTest, MinOwdOffset) {
  // True min path delay 2 ms; B's clock is −5 ms relative to A's.
  std::vector<ClockSync::OwdPair> pairs;
  for (int i = 0; i < 50; ++i) {
    const auto a = kEpoch + sim::Duration{i * 10'000};
    const auto path = 2ms + sim::Duration{(i % 7) * 1500};  // ≥ 2 ms
    pairs.push_back({a, a + path - 5ms});
  }
  const auto offset = ClockSync::OffsetFromMinOwd(pairs, 2ms);
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, -5ms);
}

TEST(ClockSyncTest, JoinCapturesMatchesByPacketId) {
  const auto pairs =
      ClockSync::JoinCaptures({Captured(1, kEpoch + 1ms), Captured(2, kEpoch + 2ms)},
                              {Captured(1, kEpoch + 11ms)});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a_ts, kEpoch + 1ms);
  EXPECT_EQ(pairs[0].b_ts, kEpoch + 11ms);
}

// ---------- Correlator on synthetic inputs ----------

class CorrelatorSyntheticTest : public ::testing::Test {
 protected:
  net::CaptureRecord SenderRecord(net::PacketId id, sim::TimePoint ts, std::uint32_t size,
                                  std::uint64_t frame_id = 0,
                                  net::PacketKind kind = net::PacketKind::kRtpVideo) {
    net::CaptureRecord r;
    r.packet_id = id;
    r.local_ts = ts;
    r.true_ts = ts;
    r.kind = kind;
    r.size_bytes = size;
    r.set_rtp(net::RtpMeta{.frame_id = frame_id,
                           .packets_in_frame = 1,
                           .packet_index_in_frame = 0,
                           .layer = net::SvcLayer::kBase});
    return r;
  }

  /// `r` as packet `index` of a `count`-packet frame.
  static net::CaptureRecord InFrame(net::CaptureRecord r, std::uint32_t count,
                                    std::uint32_t index) {
    net::RtpMeta rtp = *r.rtp();
    rtp.packets_in_frame = count;
    rtp.packet_index_in_frame = index;
    r.set_rtp(rtp);
    return r;
  }

  ran::TbRecord Tb(ran::TbId id, sim::TimePoint slot, std::uint32_t tbs, std::uint32_t used,
                   bool crc_ok = true, std::uint8_t round = 0, ran::TbId chain = 0) {
    return ran::TbRecord{.tb_id = id,
                         .chain_id = chain ? chain : id,
                         .slot_time = slot,
                         .grant = ran::GrantType::kProactive,
                         .tbs_bytes = tbs,
                         .used_bytes = used,
                         .harq_round = round,
                         .crc_ok = crc_ok};
  }
};

TEST_F(CorrelatorSyntheticTest, SinglePacketSingleTb) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 1ms, 1000)};
  input.core = {Captured(1, kEpoch + 3500us)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1000)};
  const auto data = Correlator::Correlate(input);
  ASSERT_EQ(data.packets.size(), 1u);
  const auto& p = data.packets[0];
  EXPECT_EQ(p.tb_chains, std::vector<ran::TbId>{1});
  EXPECT_EQ(p.sched_wait, 1500us);
  EXPECT_EQ(p.transmission_spread, 0us);
  EXPECT_EQ(p.rtx_inflation, 0us);
  EXPECT_TRUE(p.reached_core);
  EXPECT_EQ(p.uplink_owd, 2500us);
  EXPECT_EQ(data.unmatched_tb_bytes, 0u);
  EXPECT_EQ(data.unmatched_packet_bytes, 0u);
}

TEST_F(CorrelatorSyntheticTest, PacketSpanningTwoTbs) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 1ms, 3000, 11)};
  input.core = {Captured(1, kEpoch + 6ms)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 2500), Tb(2, kEpoch + 5000us, 2500, 500)};
  const auto data = Correlator::Correlate(input);
  ASSERT_EQ(data.packets.size(), 1u);
  const auto& p = data.packets[0];
  EXPECT_EQ(p.tb_chains, (std::vector<ran::TbId>{1, 2}));
  EXPECT_EQ(p.transmission_spread, 2500us);  // trickled across one extra slot
}

TEST_F(CorrelatorSyntheticTest, RtxInflationMeasured) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 1ms, 1000)};
  input.core = {Captured(1, kEpoch + 13'500us)};
  // First transmission fails, retransmission at +10 ms succeeds.
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1000, /*crc_ok=*/false),
                     Tb(2, kEpoch + 12'500us, 2500, 1000, true, /*round=*/1, /*chain=*/1)};
  input.cell = ran::RanConfig::PaperCell();
  const auto data = Correlator::Correlate(input);
  ASSERT_EQ(data.packets.size(), 1u);
  const auto& p = data.packets[0];
  EXPECT_EQ(p.rtx_inflation, 10ms);
  EXPECT_EQ(p.max_harq_rounds, 1);
  EXPECT_EQ(p.primary_cause, RootCause::kRetransmission);
}

TEST_F(CorrelatorSyntheticTest, FifoAssignmentAcrossPackets) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 1ms, 1500, 1),
                  SenderRecord(2, kEpoch + 1ms, 1500, 1)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 2500),  // pkt1 + 1000 of pkt2
                     Tb(2, kEpoch + 5000us, 2500, 500)};  // rest of pkt2
  const auto data = Correlator::Correlate(input);
  ASSERT_EQ(data.packets.size(), 2u);
  EXPECT_EQ(data.packets[0].tb_chains, std::vector<ran::TbId>{1});
  EXPECT_EQ(data.packets[1].tb_chains, (std::vector<ran::TbId>{1, 2}));
}

TEST_F(CorrelatorSyntheticTest, ClockOffsetIsApplied) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 3ms, 1000)};  // sender clock +2 ms
  input.sender_offset = -2ms;
  input.core = {Captured(1, kEpoch + 3500us)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1000)};
  const auto data = Correlator::Correlate(input);
  EXPECT_EQ(data.packets[0].sent_at, kEpoch + 1ms);
  EXPECT_EQ(data.packets[0].uplink_owd, 2500us);
}

TEST_F(CorrelatorSyntheticTest, UnmatchedTbBytesWhenTelemetryExceedsCaptures) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 1ms, 500)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1500)};  // 1000 phantom bytes
  const auto data = Correlator::Correlate(input);
  EXPECT_EQ(data.unmatched_tb_bytes, 1000u);
}

TEST_F(CorrelatorSyntheticTest, UnmatchedPacketBytesWhenTelemetryTruncated) {
  CorrelatorInput input;
  input.sender = {SenderRecord(1, kEpoch + 1ms, 500)};
  const auto data = Correlator::Correlate(input);
  EXPECT_EQ(data.unmatched_packet_bytes, 500u);
  EXPECT_TRUE(data.packets[0].tb_chains.empty());
}

TEST_F(CorrelatorSyntheticTest, FrameAggregation) {
  CorrelatorInput input;
  const auto p1 = InFrame(SenderRecord(1, kEpoch + 1ms, 1000, 5), 2, 0);
  const auto p2 = InFrame(SenderRecord(2, kEpoch + 1100us, 1000, 5), 2, 1);
  input.sender = {p1, p2};
  input.core = {Captured(1, kEpoch + 3500us), Captured(2, kEpoch + 6000us)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1000), Tb(2, kEpoch + 5000us, 2500, 1000)};
  const auto data = Correlator::Correlate(input);
  ASSERT_EQ(data.frames.size(), 1u);
  const auto& f = data.frames[0];
  EXPECT_TRUE(f.complete_at_core);
  EXPECT_EQ(f.packets, 2u);
  EXPECT_EQ(f.SenderSpread(), 100us);
  EXPECT_EQ(f.CoreSpread(), 2500us);
  EXPECT_EQ(f.FrameDelay(), 5ms);
}

TEST_F(CorrelatorSyntheticTest, IncompleteFrameFlagged) {
  CorrelatorInput input;
  const auto p1 = InFrame(SenderRecord(1, kEpoch + 1ms, 1000, 5), 2, 0);
  input.sender = {p1};
  input.core = {Captured(1, kEpoch + 3500us)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1000)};
  const auto data = Correlator::Correlate(input);
  ASSERT_EQ(data.frames.size(), 1u);
  EXPECT_FALSE(data.frames[0].complete_at_core);
}

TEST_F(CorrelatorSyntheticTest, FindHelpers) {
  CorrelatorInput input;
  input.sender = {SenderRecord(7, kEpoch + 1ms, 1000, 42)};
  input.telemetry = {Tb(1, kEpoch + 2500us, 2500, 1000)};
  const auto data = Correlator::Correlate(input);
  EXPECT_NE(data.FindPacket(7), nullptr);
  EXPECT_EQ(data.FindPacket(8), nullptr);
  EXPECT_NE(data.FindFrame(42), nullptr);
  EXPECT_EQ(data.FindFrame(43), nullptr);
}

TEST_F(CorrelatorSyntheticTest, RootCauseNames) {
  EXPECT_STREQ(ToString(RootCause::kBsrWait), "bsr-wait");
  EXPECT_STREQ(ToString(RootCause::kRetransmission), "retransmission");
}

// ---------- Correlator against ground truth (full session) ----------

class CorrelatorEndToEndTest : public ::testing::Test {
 protected:
  void Run(app::SessionConfig config, sim::Duration span = 10s) {
    session_ = std::make_unique<app::Session>(sim_, std::move(config));
    session_->Run(span);
    dataset_ = Correlator::Correlate(session_->BuildCorrelatorInput());
  }

  sim::Simulator sim_;
  std::unique_ptr<app::Session> session_;
  CrossLayerDataset dataset_;
};

TEST_F(CorrelatorEndToEndTest, ByteConservationHolds) {
  app::SessionConfig config;
  config.channel.base_bler = 0.08;
  Run(config);
  EXPECT_EQ(dataset_.unmatched_tb_bytes, 0u);
  // Packets still in flight at shutdown may be unmatched; nothing else.
  EXPECT_LT(dataset_.unmatched_packet_bytes, 20'000u);
}

TEST_F(CorrelatorEndToEndTest, UplinkOwdMatchesGroundTruthWithin1ms) {
  app::SessionConfig config;
  config.sender_clock_offset = 1500us;  // must be estimated away
  Run(config);
  const auto& sender_records = session_->sender_capture().log();
  const auto& core_records = session_->core_capture().log();
  std::unordered_map<net::PacketId, sim::TimePoint> true_send;
  for (const auto& r : sender_records) true_send[r.packet_id] = r.true_ts;
  std::unordered_map<net::PacketId, sim::TimePoint> true_core;
  for (const auto& r : core_records) true_core[r.packet_id] = r.true_ts;

  std::size_t checked = 0;
  for (const auto& p : dataset_.packets) {
    if (!p.reached_core) continue;
    const auto true_owd = true_core[p.packet_id] - true_send[p.packet_id];
    EXPECT_NEAR(sim::ToMs(p.uplink_owd), sim::ToMs(true_owd), 1.0);
    ++checked;
  }
  EXPECT_GT(checked, 500u);
}

TEST_F(CorrelatorEndToEndTest, TbMappingMatchesSimulatorTruth) {
  app::SessionConfig config;
  config.channel.base_bler = 0.1;
  Run(config);
  // Build packet → chain-set from the simulator's ground truth.
  std::unordered_map<net::PacketId, std::vector<ran::TbId>> truth;
  for (const auto& t : session_->ran_uplink()->truth()) {
    for (const auto& seg : t.segments) truth[seg.packet_id].push_back(t.chain_id);
  }
  std::size_t checked = 0;
  for (const auto& p : dataset_.packets) {
    if (p.tb_chains.empty()) continue;
    ASSERT_TRUE(truth.count(p.packet_id)) << "packet not in ground truth";
    EXPECT_EQ(p.tb_chains, truth[p.packet_id]) << "packet " << p.packet_id;
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

TEST_F(CorrelatorEndToEndTest, RetransmittedPacketsClassified) {
  app::SessionConfig config;
  config.channel.base_bler = 0.3;
  Run(config);
  const auto breakdown = Analyzer::RootCauseBreakdown(dataset_);
  EXPECT_GT(breakdown.count(RootCause::kRetransmission), 0u);
  EXPECT_GT(breakdown.at(RootCause::kRetransmission), 0u);
}

// Regression: duplicated and out-of-order input records must be repaired
// (deduped, re-sorted), counted in StreamHealth, and must not change the
// correlation result relative to the clean feed.
TEST_F(CorrelatorEndToEndTest, DuplicateAndReorderedRecordsAreRepairedAndCounted) {
  Run(app::SessionConfig{});
  auto input = session_->BuildCorrelatorInput();

  fault::FaultPlan plan;
  for (auto stream : {fault::Stream::kTelemetry, fault::Stream::kSenderCapture}) {
    auto& spec = plan.For(stream);
    spec.duplicate = 0.2;
    spec.reorder = 0.25;
    spec.reorder_depth = 8;
  }
  fault::FaultInjector injector{plan, 77};
  injector.Apply(fault::Stream::kTelemetry, input.telemetry);
  injector.Apply(fault::Stream::kSenderCapture, input.sender);

  const auto impaired = Correlator::Correlate(input);

  // Duplicates and reorderings carry the same information as the clean
  // feed: the correlator must recover the identical per-packet dataset.
  ASSERT_EQ(impaired.packets.size(), dataset_.packets.size());
  for (std::size_t i = 0; i < impaired.packets.size(); ++i) {
    EXPECT_EQ(impaired.packets[i].packet_id, dataset_.packets[i].packet_id);
    EXPECT_EQ(impaired.packets[i].tb_chains, dataset_.packets[i].tb_chains);
  }
  EXPECT_EQ(impaired.unmatched_tb_bytes, dataset_.unmatched_tb_bytes);

  // ...but it must never hide that repairs happened.
  EXPECT_FALSE(dataset_.health.degraded());
  EXPECT_TRUE(impaired.health.degraded());
  EXPECT_GT(impaired.health.telemetry.duplicates_dropped, 0u);
  EXPECT_GT(impaired.health.telemetry.out_of_order, 0u);
  EXPECT_GT(impaired.health.sender.duplicates_dropped, 0u);
  EXPECT_GT(impaired.health.sender.out_of_order, 0u);
  EXPECT_EQ(impaired.health.telemetry.state, StreamHealth::State::kDegraded);
}

// ---------- Analyzer ----------

TEST_F(CorrelatorEndToEndTest, AnalyzerSeriesAndCdfsPopulated) {
  app::SessionConfig config;
  Run(config);

  const auto owd = Analyzer::UplinkOwdSeries(dataset_);
  EXPECT_GT(owd.size(), 1000u);

  const auto video = Analyzer::RanDelayCdf(dataset_, false);
  const auto audio = Analyzer::RanDelayCdf(dataset_, true);
  EXPECT_FALSE(video.empty());
  EXPECT_FALSE(audio.empty());
  // §2 Fig. 4: audio is less delayed than video at the median.
  EXPECT_LE(audio.Median(), video.Median() + 0.5);

  const auto spread = Analyzer::DelaySpreadCdf(dataset_, Analyzer::SpreadAt::kCore);
  EXPECT_FALSE(spread.empty());
  // §2 Fig. 5: spread quantized in UL-slot increments.
  EXPECT_GT(Analyzer::SpreadGridFraction(dataset_, 2500us, 100us), 0.95);

  const auto frame_delay = Analyzer::FrameDelayCdf(dataset_);
  EXPECT_FALSE(frame_delay.empty());

  const auto decomp = Analyzer::MeanDecomposition(dataset_);
  EXPECT_GT(decomp.packets, 0u);
  EXPECT_NEAR(decomp.total_ms,
              decomp.sched_wait_ms + decomp.spread_ms + decomp.rtx_ms + decomp.remainder_ms,
              1e-6);
}

// ---------- OveruseAudit ----------

class OveruseAuditTest : public ::testing::Test {
 protected:
  static cc::GoogCc::Snapshot Overusing(sim::TimePoint t) {
    cc::GoogCc::Snapshot s;
    s.t = t;
    s.state = cc::BandwidthUsage::kOverusing;
    return s;
  }
  static cc::GoogCc::Snapshot Normal(sim::TimePoint t) {
    cc::GoogCc::Snapshot s;
    s.t = t;
    s.state = cc::BandwidthUsage::kNormal;
    return s;
  }

  static CrossLayerRecord MediaPacket(sim::TimePoint sent, RootCause cause) {
    CrossLayerRecord r;
    r.kind = net::PacketKind::kRtpVideo;
    r.sent_at = sent;
    r.primary_cause = cause;
    return r;
  }
};

TEST_F(OveruseAuditTest, RtxDominatedWindowIsPhantom) {
  CrossLayerDataset data;
  for (int i = 0; i < 20; ++i) {
    data.packets.push_back(
        MediaPacket(kEpoch + 500ms + sim::Duration{i * 10'000}, RootCause::kRetransmission));
  }
  const std::vector<cc::GoogCc::Snapshot> history = {
      Normal(kEpoch + 600ms), Overusing(kEpoch + 800ms)};
  const auto audit = OveruseAudit::Audit(history, data, 500ms, sim::Duration{0});
  ASSERT_EQ(audit.events.size(), 1u);
  EXPECT_TRUE(audit.events[0].phantom);
  EXPECT_EQ(audit.events[0].dominant_cause, RootCause::kRetransmission);
  EXPECT_DOUBLE_EQ(audit.PhantomFraction(), 1.0);
}

TEST_F(OveruseAuditTest, ContentionDominatedWindowIsGenuine) {
  CrossLayerDataset data;
  for (int i = 0; i < 20; ++i) {
    data.packets.push_back(MediaPacket(kEpoch + 500ms + sim::Duration{i * 10'000},
                                       RootCause::kCapacityContention));
  }
  const std::vector<cc::GoogCc::Snapshot> history = {Overusing(kEpoch + 800ms)};
  const auto audit = OveruseAudit::Audit(history, data, 500ms, sim::Duration{0});
  ASSERT_EQ(audit.events.size(), 1u);
  EXPECT_FALSE(audit.events[0].phantom);
  EXPECT_EQ(audit.genuine_events, 1u);
}

TEST_F(OveruseAuditTest, OnlyTransitionsCount) {
  CrossLayerDataset data;
  data.packets.push_back(MediaPacket(kEpoch + 700ms, RootCause::kBsrWait));
  const std::vector<cc::GoogCc::Snapshot> history = {
      Overusing(kEpoch + 800ms), Overusing(kEpoch + 810ms), Overusing(kEpoch + 820ms),
      Normal(kEpoch + 900ms), Overusing(kEpoch + 950ms)};
  const auto audit = OveruseAudit::Audit(history, data, 500ms, sim::Duration{0});
  EXPECT_EQ(audit.events.size(), 2u);  // one per entry into the state
}

TEST_F(OveruseAuditTest, SlotAlignmentAloneExplainsNothing) {
  CrossLayerDataset data;
  for (int i = 0; i < 20; ++i) {
    data.packets.push_back(
        MediaPacket(kEpoch + 500ms + sim::Duration{i * 10'000}, RootCause::kSlotAlignment));
  }
  const std::vector<cc::GoogCc::Snapshot> history = {Overusing(kEpoch + 800ms)};
  const auto audit = OveruseAudit::Audit(history, data, 500ms, sim::Duration{0});
  ASSERT_EQ(audit.events.size(), 1u);
  EXPECT_EQ(audit.events[0].dominant_cause, RootCause::kNone);
  EXPECT_FALSE(audit.events[0].phantom);
}

TEST_F(OveruseAuditTest, IdleCellSessionAuditsAllPhantom) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 97;
  config.channel = ran::ChannelModel::FadingRadio();
  app::Session session{sim, config};
  session.Run(60s);
  const auto data = Correlator::Correlate(session.BuildCorrelatorInput());
  const auto& gcc = dynamic_cast<app::GccController&>(session.sender().controller()).gcc();
  const auto audit = OveruseAudit::Audit(gcc.history(), data);
  if (!audit.events.empty()) {
    EXPECT_DOUBLE_EQ(audit.PhantomFraction(), 1.0)
        << "an idle cell cannot produce genuine overuse";
  }
}

TEST_F(CorrelatorEndToEndTest, ReportRendersAllSections) {
  app::SessionConfig config;
  Run(config);
  std::ostringstream os;
  Report::Render(os, Report::Inputs{
                         .dataset = &dataset_,
                         .qoe = &session_->qoe(),
                         .ran_counters = &session_->ran_uplink()->counters(),
                         .controller_target_bps = 1.2e6,
                     });
  const auto text = os.str();
  EXPECT_NE(text.find("RAN delay, video"), std::string::npos);
  EXPECT_NE(text.find("delay decomposition"), std::string::npos);
  EXPECT_NE(text.find("root causes"), std::string::npos);
  EXPECT_NE(text.find("scheduler efficiency"), std::string::npos);
  EXPECT_NE(text.find("receiver QoE"), std::string::npos);
  EXPECT_NE(text.find("controller target"), std::string::npos);
}

TEST(ReportTest, MissingInputsAreSkippedGracefully) {
  std::ostringstream os;
  Report::Render(os, Report::Inputs{});
  EXPECT_NE(os.str().find("(no dataset)"), std::string::npos);

  CrossLayerDataset empty;
  std::ostringstream os2;
  Report::Render(os2, Report::Inputs{.dataset = &empty,
                                     .qoe = nullptr,
                                     .ran_counters = nullptr,
                                     .controller_target_bps = std::nullopt});
  EXPECT_NE(os2.str().find("correlated packets: 0"), std::string::npos);
  EXPECT_EQ(os2.str().find("scheduler efficiency"), std::string::npos);
}

TEST_F(CorrelatorEndToEndTest, PerLayerFrameDelays) {
  app::SessionConfig config;
  Run(config);
  const auto base = Analyzer::FrameDelayCdfByLayer(dataset_, net::SvcLayer::kBase);
  const auto enh = Analyzer::FrameDelayCdfByLayer(dataset_, net::SvcLayer::kHighFpsEnhancement);
  ASSERT_GT(base.size(), 50u);
  ASSERT_GT(enh.size(), 50u);
  // The RLC queue is layer-blind (FIFO), so the two ladders see the same
  // delay distribution within noise — an Athena-verifiable property that
  // §5.2's importance-aware scheduling would deliberately break.
  EXPECT_NEAR(base.Median(), enh.Median(), 3.0);
}

TEST_F(CorrelatorEndToEndTest, WanOwdIsLowAndStable) {
  app::SessionConfig config;
  Run(config);
  const auto wan = Analyzer::WanOwdSeries(dataset_);
  ASSERT_GT(wan.size(), 100u);
  stats::Cdf cdf{wan.Values()};
  // WAN + SFU: ~2 × 10 ms + small processing; p95 − p5 stays tight
  // (the paper: WAN and downlink "provide low and stable delay").
  EXPECT_LT(cdf.P(95) - cdf.P(5), 15.0);
}

}  // namespace
}  // namespace athena::core
