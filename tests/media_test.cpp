#include <chrono>

#include <gtest/gtest.h>

#include "media/emodel.hpp"
#include "media/encoder.hpp"
#include "media/jitter_buffer.hpp"
#include "media/qoe.hpp"
#include "media/screen_capture.hpp"
#include "media/ssim_model.hpp"
#include "media/svc.hpp"
#include "rtp/packetizer.hpp"
#include "sim/simulator.hpp"

namespace athena::media {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

// ---------- SVC ----------

TEST(SvcTest, NominalRates) {
  EXPECT_DOUBLE_EQ(NominalFps(SvcMode::kHighFps28), 28.0);
  EXPECT_DOUBLE_EQ(NominalFps(SvcMode::kLowFps14), 14.0);
}

TEST(SvcTest, FrameIntervalMatchesFps) {
  EXPECT_NEAR(sim::ToMs(FrameInterval(SvcMode::kHighFps28)), 35.7, 0.1);
  EXPECT_NEAR(sim::ToMs(FrameInterval(SvcMode::kLowFps14)), 71.4, 0.1);
}

TEST(SvcTest, EvenFramesAreBase) {
  for (std::uint64_t i = 0; i < 20; i += 2) {
    EXPECT_EQ(LayerForFrame(SvcMode::kHighFps28, i), net::SvcLayer::kBase);
    EXPECT_EQ(LayerForFrame(SvcMode::kLowFps14, i), net::SvcLayer::kBase);
  }
}

TEST(SvcTest, EnhancementLayerIdDependsOnMode) {
  // §2: when the target rate is 14 fps, Zoom uses a *different identifier*
  // for the enhancement layer.
  EXPECT_EQ(LayerForFrame(SvcMode::kHighFps28, 1), net::SvcLayer::kHighFpsEnhancement);
  EXPECT_EQ(LayerForFrame(SvcMode::kLowFps14, 1), net::SvcLayer::kLowFpsEnhancement);
}

TEST(SvcTest, BaseIsNotDiscardable) {
  EXPECT_FALSE(IsDiscardable(net::SvcLayer::kBase));
  EXPECT_TRUE(IsDiscardable(net::SvcLayer::kHighFpsEnhancement));
  EXPECT_TRUE(IsDiscardable(net::SvcLayer::kLowFpsEnhancement));
}

// ---------- SsimModel ----------

TEST(SsimModelTest, MonotoneInBitrate) {
  SsimModel model;
  double prev = 0.0;
  for (double bits = 1e3; bits < 1e6; bits *= 2) {
    const double s = model.ForFrameBits(bits);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(SsimModelTest, BoundedByFloorAndCeiling) {
  SsimModel model;
  EXPECT_GE(model.ForFrameBits(1.0), model.config().floor);
  EXPECT_LE(model.ForFrameBits(1e12), model.config().ceiling);
}

TEST(SsimModelTest, PaperOperatingRange) {
  // Fig. 7d: Zoom at 640×360 lands in SSIM ≈ 0.80–0.90 for its usual
  // bitrates (several hundred kbps at ~28 fps).
  SsimModel model;
  const double ssim_800k = model.ForStream(800e3, 28.0);
  const double ssim_200k = model.ForStream(200e3, 28.0);
  EXPECT_GT(ssim_800k, 0.80);
  EXPECT_LT(ssim_800k, 0.95);
  EXPECT_GT(ssim_200k, 0.72);
  EXPECT_LT(ssim_200k, ssim_800k);
}

TEST(SsimModelTest, ZeroFpsIsFloor) {
  SsimModel model;
  EXPECT_DOUBLE_EQ(model.ForStream(1e6, 0.0), model.config().floor);
}

// ---------- EModel ----------

TEST(EModelTest, PerfectConditionsAreExcellent) {
  EModel model;
  EXPECT_GT(model.Mos(50.0, 0.0), 4.3);
  EXPECT_DOUBLE_EQ(model.DelayImpairment(80.0), 0.0);
}

TEST(EModelTest, DelayImpairmentKicksInPast100ms) {
  EModel model;
  EXPECT_DOUBLE_EQ(model.DelayImpairment(100.0), 0.0);
  EXPECT_GT(model.DelayImpairment(150.0), 0.0);
  // The conversational cliff past ~177 ms is much steeper.
  const double slope_low = model.DelayImpairment(170.0) - model.DelayImpairment(160.0);
  const double slope_high = model.DelayImpairment(300.0) - model.DelayImpairment(290.0);
  EXPECT_GT(slope_high, 3.0 * slope_low);
}

TEST(EModelTest, MosMonotoneInDelayAndLoss) {
  EModel model;
  double prev = 5.0;
  for (const double d : {20.0, 100.0, 200.0, 400.0, 800.0}) {
    const double mos = model.Mos(d, 0.0);
    EXPECT_LE(mos, prev);     // weakly monotone everywhere...
    if (d > 100.0) EXPECT_LT(mos, prev);  // ...strictly past the Id knee
    prev = mos;
  }
  prev = 5.0;
  for (const double loss : {0.0, 0.01, 0.05, 0.2, 0.5}) {
    const double mos = model.Mos(50.0, loss);
    EXPECT_LE(mos, prev);
    prev = mos;
  }
}

TEST(EModelTest, MosBounds) {
  EXPECT_DOUBLE_EQ(EModel::MosFromR(0.0), 1.0);
  EXPECT_DOUBLE_EQ(EModel::MosFromR(100.0), 4.5);
  EXPECT_NEAR(EModel::MosFromR(80.0), 4.0, 0.15);  // "good" band
}

TEST(EModelTest, LossImpairmentSaturates) {
  EModel model;
  EXPECT_LT(model.LossImpairment(1.0), 55.1);
  EXPECT_NEAR(model.LossImpairment(0.0), 0.0, 1e-9);
}

TEST(EModelTest, QoeCollectorReportsAudioMos) {
  QoeCollector qoe;
  for (int i = 0; i < 100; ++i) {
    EncodedUnit u;
    u.unit.frame_id = static_cast<std::uint64_t>(i) * 2 + 2;  // even: audio
    u.unit.is_audio = true;
    u.captured_at = sim::kEpoch + sim::Duration{i * 20'000};
    qoe.OnUnitSent(u);
    if (i % 10 == 0) continue;  // 10% sample loss
    RenderedFrame f;
    f.frame_id = u.unit.frame_id;
    f.is_audio = true;
    f.rendered_at = u.captured_at + 80ms;
    qoe.OnFrameRendered(f);
  }
  EXPECT_NEAR(qoe.AudioLossFraction(), 0.1, 1e-9);
  const double mos = qoe.AudioMos();
  EXPECT_GT(mos, 2.0);
  EXPECT_LT(mos, 4.2);  // 10% loss costs real quality
}

// ---------- VideoEncoder ----------

VideoEncoder MakeEncoder(double bitrate = 800e3, double sigma = 0.0) {
  VideoEncoder::Config c;
  c.initial_bitrate_bps = bitrate;
  c.size_sigma = sigma;
  return VideoEncoder{c, sim::Rng{11}};
}

TEST(VideoEncoderTest, FrameSizeMatchesRate) {
  auto enc = MakeEncoder(840e3, 0.0);  // 840 kbps at 28 fps = 30 kbit = 3750 B
  const auto unit = enc.EncodeNextFrame(kEpoch);
  ASSERT_TRUE(unit.has_value());
  EXPECT_NEAR(unit->unit.payload_bytes, 3750, 5);
}

TEST(VideoEncoderTest, LayersFollowSvcPattern) {
  auto enc = MakeEncoder();
  const auto a = enc.EncodeNextFrame(kEpoch);
  const auto b = enc.EncodeNextFrame(kEpoch + 35ms);
  EXPECT_EQ(a->unit.layer, net::SvcLayer::kBase);
  EXPECT_EQ(b->unit.layer, net::SvcLayer::kHighFpsEnhancement);
}

TEST(VideoEncoderTest, FrameIdsAreOddAndIncreasing) {
  auto enc = MakeEncoder();
  const auto a = enc.EncodeNextFrame(kEpoch);
  const auto b = enc.EncodeNextFrame(kEpoch);
  EXPECT_EQ(a->unit.frame_id % 2, 1u);
  EXPECT_EQ(b->unit.frame_id, a->unit.frame_id + 2);
}

TEST(VideoEncoderTest, TargetBitrateIsClamped) {
  auto enc = MakeEncoder();
  enc.set_target_bitrate(1.0);
  EXPECT_DOUBLE_EQ(enc.target_bitrate(), enc.config().min_bitrate_bps);
  enc.set_target_bitrate(1e9);
  EXPECT_DOUBLE_EQ(enc.target_bitrate(), enc.config().max_bitrate_bps);
}

TEST(VideoEncoderTest, ModeSwitchRestartsPatternOnBase) {
  auto enc = MakeEncoder();
  (void)enc.EncodeNextFrame(kEpoch);  // base
  enc.set_mode(SvcMode::kLowFps14);
  const auto first = enc.EncodeNextFrame(kEpoch);
  EXPECT_EQ(first->unit.layer, net::SvcLayer::kBase);
  const auto second = enc.EncodeNextFrame(kEpoch);
  EXPECT_EQ(second->unit.layer, net::SvcLayer::kLowFpsEnhancement);
}

TEST(VideoEncoderTest, SkipFractionOnlySkipsEnhancement) {
  auto enc = MakeEncoder();
  enc.set_enhancement_skip_fraction(1.0);
  int base = 0;
  int skipped = 0;
  for (int i = 0; i < 100; ++i) {
    const auto unit = enc.EncodeNextFrame(kEpoch);
    if (!unit) {
      ++skipped;
      continue;
    }
    EXPECT_EQ(unit->unit.layer, net::SvcLayer::kBase);
    ++base;
  }
  EXPECT_EQ(base, 50);
  EXPECT_EQ(skipped, 50);
  EXPECT_EQ(enc.frames_skipped(), 50u);
}

TEST(VideoEncoderTest, SsimTracksFrameSize) {
  auto small = MakeEncoder(200e3, 0.0);
  auto large = MakeEncoder(1500e3, 0.0);
  EXPECT_LT(small.EncodeNextFrame(kEpoch)->ssim, large.EncodeNextFrame(kEpoch)->ssim);
}

TEST(VideoEncoderTest, MeanSizeIsPreservedUnderVariation) {
  auto enc = MakeEncoder(840e3, 0.3);
  double total = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) total += enc.EncodeNextFrame(kEpoch)->unit.payload_bytes;
  EXPECT_NEAR(total / n, 3750.0, 150.0);
}

// ---------- AudioEncoder ----------

TEST(AudioEncoderTest, SampleSizeFromBitrate) {
  AudioEncoder enc;  // 64 kbps, 20 ms → 160 B
  const auto unit = enc.EncodeNextSample(kEpoch);
  EXPECT_EQ(unit.unit.payload_bytes, 160u);
  EXPECT_TRUE(unit.unit.is_audio);
}

TEST(AudioEncoderTest, SampleIdsAreEven) {
  AudioEncoder enc;
  const auto a = enc.EncodeNextSample(kEpoch);
  const auto b = enc.EncodeNextSample(kEpoch);
  EXPECT_EQ(a.unit.frame_id % 2, 0u);
  EXPECT_EQ(b.unit.frame_id, a.unit.frame_id + 2);
}

// ---------- JitterBuffer ----------

class JitterBufferTest : public ::testing::Test {
 protected:
  JitterBufferTest() : jb_(sim_, JitterBuffer::Config{}) {
    jb_.set_render_callback([this](const RenderedFrame& f) { rendered_.push_back(f); });
  }

  /// Builds the i-th packet of a frame.
  net::Packet FramePacket(std::uint64_t frame_id, std::uint32_t index, std::uint32_t count,
                          std::uint32_t media_ts) {
    net::Packet p;
    p.id = next_id_++;
    p.kind = net::PacketKind::kRtpVideo;
    p.size_bytes = 1200;
    p.rtp = net::RtpMeta{
        .frame_id = frame_id,
        .media_ts = media_ts,
        .packets_in_frame = count,
        .packet_index_in_frame = index,
        .marker = index + 1 == count,
        .layer = net::SvcLayer::kBase,
    };
    return p;
  }

  sim::Simulator sim_;
  JitterBuffer jb_;
  std::vector<RenderedFrame> rendered_;
  net::PacketId next_id_ = 1;
};

TEST_F(JitterBufferTest, RendersCompleteFrame) {
  sim_.ScheduleAfter(10ms, [&] { jb_.OnPacket(FramePacket(1, 0, 2, 0)); });
  sim_.ScheduleAfter(12ms, [&] { jb_.OnPacket(FramePacket(1, 1, 2, 0)); });
  sim_.RunAll();
  ASSERT_EQ(rendered_.size(), 1u);
  EXPECT_EQ(rendered_[0].frame_id, 1u);
  EXPECT_EQ(rendered_[0].first_packet_at, kEpoch + 10ms);
  EXPECT_EQ(rendered_[0].completed_at, kEpoch + 12ms);
  EXPECT_GE(rendered_[0].rendered_at, rendered_[0].completed_at);
}

TEST_F(JitterBufferTest, IncompleteFrameNeverRenders) {
  sim_.ScheduleAfter(10ms, [&] { jb_.OnPacket(FramePacket(1, 0, 3, 0)); });
  sim_.RunAll();
  EXPECT_TRUE(rendered_.empty());
}

TEST_F(JitterBufferTest, DuplicatesAreDropped) {
  sim_.ScheduleAfter(10ms, [&] {
    jb_.OnPacket(FramePacket(1, 0, 2, 0));
    jb_.OnPacket(FramePacket(1, 0, 2, 0));  // dup of index 0
  });
  sim_.RunAll();
  EXPECT_TRUE(rendered_.empty());
  EXPECT_EQ(jb_.duplicates_dropped(), 1u);
}

TEST_F(JitterBufferTest, PlayoutIsMonotone) {
  // Frames every 33 ms of media time (90 kHz → 2970 ticks).
  for (int i = 0; i < 20; ++i) {
    sim_.ScheduleAfter(sim::Duration{i * 33'000 + (i % 3) * 4000}, [this, i] {
      jb_.OnPacket(FramePacket(i + 1, 0, 1, static_cast<std::uint32_t>(i * 2970)));
    });
  }
  sim_.RunAll();
  ASSERT_EQ(rendered_.size(), 20u);
  for (std::size_t i = 1; i < rendered_.size(); ++i) {
    EXPECT_GE(rendered_[i].rendered_at, rendered_[i - 1].rendered_at);
  }
}

TEST_F(JitterBufferTest, LateFrameIsFlaggedAndRendersImmediately) {
  // Frame 1 anchors; frame 2 arrives far later than its media position.
  sim_.ScheduleAfter(10ms, [&] { jb_.OnPacket(FramePacket(1, 0, 1, 0)); });
  sim_.ScheduleAfter(500ms, [&] { jb_.OnPacket(FramePacket(2, 0, 1, 2970)); });
  sim_.RunAll();
  ASSERT_EQ(rendered_.size(), 2u);
  EXPECT_TRUE(rendered_[1].late);
  EXPECT_EQ(rendered_[1].rendered_at, rendered_[1].completed_at);
  EXPECT_EQ(jb_.frames_late(), 1u);
}

TEST_F(JitterBufferTest, PlayoutDelayGrowsWithJitter) {
  const auto initial = jb_.current_playout_delay();
  // Feed strongly jittered arrivals.
  for (int i = 0; i < 50; ++i) {
    const auto jitter = sim::Duration{(i % 2) * 25'000};
    sim_.ScheduleAfter(sim::Duration{i * 33'000} + jitter, [this, i] {
      jb_.OnPacket(FramePacket(i + 1, 0, 1, static_cast<std::uint32_t>(i * 2970)));
    });
  }
  sim_.RunAll();
  EXPECT_GT(jb_.current_playout_delay(), initial);
}

TEST_F(JitterBufferTest, StaleFramesAreAbandoned) {
  sim_.ScheduleAfter(1ms, [&] { jb_.OnPacket(FramePacket(1, 0, 2, 0)); });
  // Never send the second packet; trigger GC with a later packet.
  sim_.ScheduleAfter(5s, [&] { jb_.OnPacket(FramePacket(2, 0, 1, 90'000)); });
  sim_.RunAll();
  EXPECT_EQ(jb_.frames_abandoned(), 1u);
}

TEST_F(JitterBufferTest, AnchorTightensAfterTransientStart) {
  // The first few frames are delayed 200 ms (they hit an outage),
  // anchoring the playout clock far too late; everything after arrives
  // promptly. Once a full tightening window of consistently-early frames
  // passes (the first window still contains the anchor frame itself), the
  // buffer reclaims the slack.
  for (int i = 0; i < 600; ++i) {
    const auto delay = i < 5 ? 200ms : 5ms;
    sim_.ScheduleAfter(sim::Duration{i * 33'000} + delay, [this, i] {
      jb_.OnPacket(FramePacket(i + 1, 0, 1, static_cast<std::uint32_t>(i * 2970)));
    });
  }
  sim_.RunAll();
  EXPECT_GE(jb_.anchor_tightenings(), 1u);
  ASSERT_EQ(rendered_.size(), 600u);
  // Early frames carry ~195 ms of anchor slack; the tail far less.
  const auto early_slack = rendered_[10].rendered_at - rendered_[10].completed_at;
  const auto late_slack = rendered_.back().rendered_at - rendered_.back().completed_at;
  EXPECT_GT(early_slack, 150ms);
  EXPECT_LT(late_slack, sim::Duration{early_slack.count() / 2});
}

TEST_F(JitterBufferTest, TighteningDisabledKeepsSlack) {
  JitterBuffer::Config config;
  config.tighten_window_frames = 0;
  JitterBuffer jb{sim_, config};
  std::vector<RenderedFrame> rendered;
  jb.set_render_callback([&](const RenderedFrame& f) { rendered.push_back(f); });
  for (int i = 0; i < 600; ++i) {
    const auto delay = i < 5 ? 200ms : 5ms;
    sim_.ScheduleAfter(sim::Duration{i * 33'000} + delay, [&jb, this, i] {
      jb.OnPacket(FramePacket(i + 1, 0, 1, static_cast<std::uint32_t>(i * 2970)));
    });
  }
  sim_.RunAll();
  EXPECT_EQ(jb.anchor_tightenings(), 0u);
  ASSERT_EQ(rendered.size(), 600u);
  const auto late_slack = rendered.back().rendered_at - rendered.back().completed_at;
  EXPECT_GT(late_slack, 100ms);  // the slack never goes away
}

TEST_F(JitterBufferTest, IgnoresNonMediaPackets) {
  net::Packet icmp;
  icmp.id = 1;
  icmp.kind = net::PacketKind::kIcmpEcho;
  jb_.OnPacket(icmp);
  EXPECT_EQ(jb_.packets_received(), 0u);

  net::Packet no_rtp;
  no_rtp.id = 2;
  no_rtp.kind = net::PacketKind::kRtpVideo;  // media kind but header-less
  jb_.OnPacket(no_rtp);
  EXPECT_EQ(jb_.packets_received(), 0u);
}

TEST(VideoEncoderModeTest, SettingSameModeKeepsPatternPhase) {
  VideoEncoder enc{VideoEncoder::Config{}, sim::Rng{3}};
  (void)enc.EncodeNextFrame(kEpoch);  // base
  enc.set_mode(SvcMode::kHighFps28);  // no-op: same mode
  const auto next = enc.EncodeNextFrame(kEpoch);
  EXPECT_EQ(next->unit.layer, net::SvcLayer::kHighFpsEnhancement);
}

TEST(ScreenCaptureFpsTest, ObservedFpsTracksRenderRate) {
  sim::Simulator sim;
  ScreenCapture screen{sim};
  screen.Start();
  for (int i = 0; i < 70; ++i) {
    sim.ScheduleAfter(sim::Duration{i * 50'000}, [&screen, i] {
      RenderedFrame f;
      f.frame_id = static_cast<std::uint64_t>(i) + 1;
      screen.OnFrameRendered(f);
    });
  }
  sim.RunUntil(kEpoch + 3600ms);
  screen.Stop();
  EXPECT_NEAR(screen.ObservedFps(), 20.0, 1.5);  // one frame per 50 ms
}

TEST_F(JitterBufferTest, CountsPackets) {
  sim_.ScheduleAfter(1ms, [&] { jb_.OnPacket(FramePacket(1, 0, 1, 0)); });
  sim_.RunAll();
  EXPECT_EQ(jb_.packets_received(), 1u);
  EXPECT_EQ(jb_.frames_rendered(), 1u);
}

// ---------- ScreenCapture ----------

TEST(ScreenCaptureTest, ObservesDistinctFrames) {
  sim::Simulator sim;
  ScreenCapture screen{sim};
  screen.Start();
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(sim::Duration{i * 33'000}, [&screen, i] {
      RenderedFrame f;
      f.frame_id = i + 1;
      screen.OnFrameRendered(f);
    });
  }
  sim.RunUntil(kEpoch + 400ms);
  screen.Stop();
  EXPECT_EQ(screen.observations().size(), 10u);
}

TEST(ScreenCaptureTest, FrozenFrameDetection) {
  sim::Simulator sim;
  ScreenCapture screen{sim};
  screen.Start();
  RenderedFrame f1;
  f1.frame_id = 1;
  RenderedFrame f2;
  f2.frame_id = 2;
  sim.ScheduleAfter(1ms, [&] { screen.OnFrameRendered(f1); });
  sim.ScheduleAfter(300ms, [&] { screen.OnFrameRendered(f2); });  // f1 frozen ~300 ms
  sim.RunUntil(kEpoch + 400ms);
  screen.Stop();
  EXPECT_GE(screen.FrozenFrameCount(33ms), 1u);
}

TEST(ScreenCaptureTest, IgnoresAudio) {
  sim::Simulator sim;
  ScreenCapture screen{sim};
  screen.Start();
  RenderedFrame audio;
  audio.frame_id = 2;
  audio.is_audio = true;
  sim.ScheduleAfter(1ms, [&] { screen.OnFrameRendered(audio); });
  sim.RunUntil(kEpoch + 100ms);
  EXPECT_TRUE(screen.observations().empty());
}

TEST(ScreenCaptureTest, SamplesAtConfiguredRate) {
  sim::Simulator sim;
  ScreenCapture screen{sim, ScreenCapture::Config{.capture_fps = 70.0}};
  screen.Start();
  sim.RunUntil(kEpoch + 1s);
  screen.Stop();
  EXPECT_NEAR(static_cast<double>(screen.samples_taken()), 70.0, 2.0);
}

// ---------- QoeCollector ----------

class QoeTest : public ::testing::Test {
 protected:
  EncodedUnit Unit(std::uint64_t id, sim::TimePoint captured, double ssim = 0.9) {
    EncodedUnit u;
    u.unit.frame_id = id;
    u.unit.payload_bytes = 3000;
    u.captured_at = captured;
    u.ssim = ssim;
    return u;
  }

  RenderedFrame Frame(std::uint64_t id, sim::TimePoint completed, sim::TimePoint rendered) {
    RenderedFrame f;
    f.frame_id = id;
    f.completed_at = completed;
    f.rendered_at = rendered;
    return f;
  }

  QoeCollector qoe_;
};

TEST_F(QoeTest, MouthToEarFromRegistry) {
  qoe_.OnUnitSent(Unit(1, kEpoch));
  qoe_.OnFrameRendered(Frame(1, kEpoch + 80ms, kEpoch + 100ms));
  ASSERT_EQ(qoe_.MouthToEarMs().size(), 1u);
  EXPECT_DOUBLE_EQ(qoe_.MouthToEarMs().Median(), 100.0);
}

TEST_F(QoeTest, SsimOfRenderedFramesOnly) {
  qoe_.OnUnitSent(Unit(1, kEpoch, 0.8));
  qoe_.OnUnitSent(Unit(3, kEpoch, 0.99));  // never rendered
  qoe_.OnFrameRendered(Frame(1, kEpoch + 10ms, kEpoch + 20ms));
  ASSERT_EQ(qoe_.Ssim().size(), 1u);
  EXPECT_DOUBLE_EQ(qoe_.Ssim().Median(), 0.8);
}

TEST_F(QoeTest, FrameJitterComparesInterArrivalToInterCapture) {
  qoe_.OnUnitSent(Unit(1, kEpoch));
  qoe_.OnUnitSent(Unit(3, kEpoch + 33ms));
  qoe_.OnFrameRendered(Frame(1, kEpoch + 50ms, kEpoch + 60ms));
  // Arrives 43 ms after the previous completion but only 33 ms after in
  // capture time → jitter 10 ms.
  qoe_.OnFrameRendered(Frame(3, kEpoch + 93ms, kEpoch + 95ms));
  ASSERT_EQ(qoe_.FrameJitterMs().size(), 1u);
  EXPECT_NEAR(qoe_.FrameJitterMs().Median(), 10.0, 1e-9);
}

TEST_F(QoeTest, BitrateWindowsFromPackets) {
  net::Packet p;
  p.kind = net::PacketKind::kRtpVideo;
  p.size_bytes = 1250;  // ×8 = 10 kbit
  for (int i = 0; i < 100; ++i) {
    qoe_.OnPacketReceived(p, kEpoch + sim::Duration{i * 10'000});
  }
  const auto cdf = qoe_.ReceiveBitrateKbps();
  ASSERT_FALSE(cdf.empty());
  EXPECT_NEAR(cdf.Median(), 1000.0, 10.0);  // 100 pkt/s × 10 kbit = 1 Mbps
}

TEST_F(QoeTest, DeliveryRatioCountsVideoOnly) {
  qoe_.OnUnitSent(Unit(1, kEpoch));
  qoe_.OnUnitSent(Unit(3, kEpoch));
  EncodedUnit audio = Unit(2, kEpoch);
  audio.unit.is_audio = true;
  qoe_.OnUnitSent(audio);
  qoe_.OnFrameRendered(Frame(1, kEpoch + 10ms, kEpoch + 10ms));
  EXPECT_DOUBLE_EQ(qoe_.VideoDeliveryRatio(), 0.5);
}

TEST_F(QoeTest, AudioRenderContributesOnlyMouthToEar) {
  EncodedUnit audio = Unit(2, kEpoch);
  audio.unit.is_audio = true;
  qoe_.OnUnitSent(audio);
  RenderedFrame f = Frame(2, kEpoch + 30ms, kEpoch + 40ms);
  f.is_audio = true;
  qoe_.OnFrameRendered(f);
  EXPECT_EQ(qoe_.MouthToEarMs().size(), 1u);
  EXPECT_EQ(qoe_.video_frames_rendered(), 0u);
  EXPECT_TRUE(qoe_.Ssim().empty());
}

TEST_F(QoeTest, InterleavedOutOfOrderDuplicateAndUnknownIdsPinTheCdfs) {
  auto audio_unit = [&](std::uint64_t id, sim::TimePoint captured) {
    EncodedUnit u = Unit(id, captured);
    u.unit.is_audio = true;
    return u;
  };
  auto audio_frame = [&](std::uint64_t id, sim::TimePoint completed, sim::TimePoint rendered) {
    RenderedFrame f = Frame(id, completed, rendered);
    f.is_audio = true;
    return f;
  };
  qoe_.OnUnitSent(Unit(1, kEpoch, 0.8));
  qoe_.OnUnitSent(audio_unit(2, kEpoch));
  qoe_.OnUnitSent(Unit(5, kEpoch + 66ms, 0.7));   // sent ahead of frame 3
  qoe_.OnUnitSent(Unit(3, kEpoch + 33ms, 0.9));
  qoe_.OnUnitSent(audio_unit(4, kEpoch + 20ms));
  qoe_.OnUnitSent(Unit(3, kEpoch + 40ms, 0.95));  // re-sent: the later entry wins
  qoe_.OnUnitSent(audio_unit(6, kEpoch + 40ms));

  qoe_.OnFrameRendered(Frame(1, kEpoch + 50ms, kEpoch + 60ms));
  qoe_.OnFrameRendered(audio_frame(2, kEpoch + 30ms, kEpoch + 45ms));
  qoe_.OnFrameRendered(Frame(3, kEpoch + 95ms, kEpoch + 100ms));
  qoe_.OnFrameRendered(audio_frame(4, kEpoch + 50ms, kEpoch + 70ms));
  qoe_.OnFrameRendered(Frame(7, kEpoch + 120ms, kEpoch + 130ms));  // never sent
  qoe_.OnFrameRendered(Frame(5, kEpoch + 130ms, kEpoch + 140ms));
  qoe_.OnFrameRendered(audio_frame(8, kEpoch + 60ms, kEpoch + 65ms));  // never sent

  EXPECT_EQ(qoe_.MouthToEarMs().sorted_samples(),
            (std::vector<double>{45.0, 50.0, 60.0, 60.0, 74.0}));
  EXPECT_EQ(qoe_.AudioMouthToEarMs().sorted_samples(), (std::vector<double>{45.0, 50.0}));
  EXPECT_EQ(qoe_.Ssim().sorted_samples(), (std::vector<double>{0.7, 0.8, 0.95}));
  // |(95 − 50) − (40 − 0)| and |(130 − 95) − (66 − 40)|; the unknown
  // frame 7 neither adds a sample nor moves the reference frame.
  const auto& jitter = qoe_.FrameJitterMs().sorted_samples();
  ASSERT_EQ(jitter.size(), 2u);
  EXPECT_NEAR(jitter[0], 5.0, 1e-9);
  EXPECT_NEAR(jitter[1], 9.0, 1e-9);
  EXPECT_EQ(qoe_.JitterHoldMs().sorted_samples(),
            (std::vector<double>{5.0, 5.0, 10.0, 10.0, 10.0, 15.0, 20.0}));
  EXPECT_EQ(qoe_.frames_sent(), 4u);  // every OnUnitSent counts, re-sends too
  EXPECT_EQ(qoe_.video_frames_rendered(), 4u);
  EXPECT_DOUBLE_EQ(qoe_.VideoDeliveryRatio(), 1.0);
  EXPECT_DOUBLE_EQ(qoe_.AudioLossFraction(), 0.0);
}

}  // namespace
}  // namespace athena::media
