#include "app/sender.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace athena::app {

VcaSender::VcaSender(sim::Simulator& sim, Config config,
                     std::unique_ptr<RateController> controller, net::PacketIdGenerator& ids,
                     sim::Rng rng)
    : sim_(sim),
      config_(config),
      controller_(std::move(controller)),
      video_encoder_(config.video, rng.Fork()),
      audio_encoder_(config.audio),
      adaptation_(video_encoder_, config.adaptation),
      video_packetizer_(rtp::Packetizer::Config{.ssrc = config.video_ssrc,
                                                .flow = config.flow},
                        ids, transport_seq_),
      audio_packetizer_(rtp::Packetizer::Config{.ssrc = config.audio_ssrc,
                                                .flow = config.flow},
                        ids, transport_seq_),
      rtx_cache_(config.rtx_cache_packets),
      ids_(ids),
      audio_timer_(sim, config.audio.sample_interval, [this] { OnAudioTick(); }) {
  if (config_.pacing_enabled) {
    pacer_ = std::make_unique<Pacer>(sim_, config_.pacer);
    pacer_->set_target_bitrate(config_.video.initial_bitrate_bps);
    pacer_->set_sink([this](const net::Packet& p) {
      if (outbound_) outbound_(p);
    });
  }
}

void VcaSender::Start() {
  if (running_) return;
  running_ = true;
  audio_timer_.Start(sim::Duration{0});
  timer_mode_ = video_encoder_.mode();
  video_timer_ = sim_.ScheduleAfter(sim::Duration{0}, [this] { OnVideoTick(); });
}

void VcaSender::Stop() {
  running_ = false;
  audio_timer_.Stop();
  sim_.Cancel(video_timer_);
}

void VcaSender::OnVideoTick() {
  if (!running_) return;
  if (const auto unit = video_encoder_.EncodeNextFrame(sim_.Now())) {
    SendUnit(*unit, video_packetizer_);
  }
  RescheduleVideoTimer();
}

void VcaSender::RescheduleVideoTimer() {
  // The frame interval follows the adaptation FSM's current mode.
  timer_mode_ = video_encoder_.mode();
  video_timer_ = sim_.ScheduleAfter(video_encoder_.frame_interval(), [this] { OnVideoTick(); });
}

void VcaSender::OnAudioTick() {
  if (!running_) return;
  SendUnit(audio_encoder_.EncodeNextSample(sim_.Now()), audio_packetizer_);
}

void VcaSender::SendUnit(const media::EncodedUnit& unit, rtp::Packetizer& packetizer) {
  if (qoe_) qoe_->OnUnitSent(unit);
  const auto packets = packetizer.Packetize(unit.unit, sim_.Now());
  obs::TraceInstant(obs::Layer::kApp,
                    unit.unit.is_audio ? obs::names::kAudioEncoded : obs::names::kFrameEncoded, sim_.Now(),
                    {{"frame", static_cast<double>(unit.unit.frame_id)},
                     {"bytes", static_cast<double>(unit.unit.payload_bytes)},
                     {"packets", static_cast<double>(packets.size())}});
  for (const auto& p : packets) {
    twcc_.OnPacketSent(p, sim_.Now());
    controller_->OnPacketSent(p, sim_.Now());
    if (config_.nack_enabled) rtx_cache_.Insert(p);
    ++media_packets_sent_;
    if (pacer_) {
      pacer_->Send(p);
    } else if (outbound_) {
      outbound_(p);
    }
  }
  static thread_local obs::CachedCounter counter_media_packets_sent{"app.media_packets_sent"};
  counter_media_packets_sent.Inc(packets.size());
}

void VcaSender::OnFeedbackPacket(const net::Packet& p) {
  if (p.nack && config_.nack_enabled) {
    // RFC 4585: resend the requested packets from the cache. The
    // retransmission is a fresh transmission for the transport: new packet
    // id and transport-wide sequence number, same RTP identity.
    for (const auto seq : p.nack->seqs) {
      std::optional<net::Packet> cached = rtx_cache_.Find(p.nack->ssrc, seq);
      if (!cached) continue;  // evicted: the receiver gives up
      net::Packet& rtx = *cached;
      rtx.id = ids_.Next();
      rtx.created_at = sim_.Now();
      rtx.rtp->transport_seq = transport_seq_.Next();
      twcc_.OnPacketSent(rtx, sim_.Now());
      controller_->OnPacketSent(rtx, sim_.Now());
      ++retransmissions_;
      static thread_local obs::CachedCounter counter_retransmissions{"app.retransmissions"};
      counter_retransmissions.Inc();
      obs::TraceInstant(obs::Layer::kApp, obs::names::kRtxSent, sim_.Now(),
                        {{"seq", static_cast<double>(seq)}});
      if (outbound_) outbound_(rtx);
    }
  }
  if (!p.feedback) return;
  ++feedback_received_;
  static thread_local obs::CachedCounter counter_feedback_received{"app.feedback_received"};
  counter_feedback_received.Inc();
  const auto reports = twcc_.OnFeedback(p);
  if (reports.empty()) return;

  const double target = controller_->OnFeedback(reports, sim_.Now());
  if (config_.adaptation_enabled) adaptation_.OnFeedback(reports, sim_.Now());

  const double video_target = std::max(target - config_.audio_reserve_bps, 50e3);
  video_encoder_.set_target_bitrate(video_target);
  if (pacer_) pacer_->set_target_bitrate(target);
}

}  // namespace athena::app
