// The VCA sender: camera/microphone → encoders → packetizers → network,
// with congestion control and Zoom-style adaptation in the loop. Media
// units go out as RTP bursts (§2: frames "are sent in bursts"); TWCC
// feedback returns through OnFeedbackPacket and drives both the rate
// controller and the adaptation FSM.
#pragma once

#include <cstdint>
#include <memory>

#include "app/adaptation.hpp"
#include "app/controller.hpp"
#include "app/pacer.hpp"
#include "media/encoder.hpp"
#include "media/qoe.hpp"
#include "net/packet.hpp"
#include "rtp/nack.hpp"
#include "rtp/packetizer.hpp"
#include "rtp/twcc.hpp"
#include "sim/simulator.hpp"

namespace athena::app {

class VcaSender {
 public:
  struct Config {
    media::VideoEncoder::Config video;
    media::AudioEncoder::Config audio;
    ZoomAdaptation::Config adaptation;
    bool adaptation_enabled = true;
    std::uint32_t video_ssrc = 0x10;
    std::uint32_t audio_ssrc = 0x20;
    net::FlowId flow = 1;
    /// Reserved for audio + headers when splitting the CC target.
    double audio_reserve_bps = 80e3;
    /// RFC 4585 NACK handling: retransmit cached packets on request.
    bool nack_enabled = true;
    /// Retransmission window in packets, 1..65536 (checked).
    std::size_t rtx_cache_packets = 2048;
    /// Paced sending instead of per-frame bursts (see app/pacer.hpp).
    bool pacing_enabled = false;
    Pacer::Config pacer;
  };

  VcaSender(sim::Simulator& sim, Config config, std::unique_ptr<RateController> controller,
            net::PacketIdGenerator& ids, sim::Rng rng);

  /// Starts the capture clocks.
  void Start();
  void Stop();

  /// Media packets leave through this handler (towards capture point ①).
  void set_outbound(net::PacketHandler h) { outbound_ = std::move(h); }

  /// Wire the feedback return path here.
  void OnFeedbackPacket(const net::Packet& p);
  [[nodiscard]] net::PacketHandler FeedbackHandler() {
    return [this](const net::Packet& p) { OnFeedbackPacket(p); };
  }

  /// Optional: QoE collector registering every encoded unit.
  void set_qoe(media::QoeCollector* qoe) { qoe_ = qoe; }

  [[nodiscard]] RateController& controller() { return *controller_; }
  [[nodiscard]] const RateController& controller() const { return *controller_; }
  [[nodiscard]] media::VideoEncoder& video_encoder() { return video_encoder_; }
  [[nodiscard]] ZoomAdaptation& adaptation() { return adaptation_; }
  [[nodiscard]] std::uint64_t media_packets_sent() const { return media_packets_sent_; }
  [[nodiscard]] std::uint64_t feedback_received() const { return feedback_received_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] Pacer* pacer() { return pacer_.get(); }

 private:
  void OnVideoTick();
  void OnAudioTick();
  void SendUnit(const media::EncodedUnit& unit, rtp::Packetizer& packetizer);
  void RescheduleVideoTimer();

  sim::Simulator& sim_;
  Config config_;
  std::unique_ptr<RateController> controller_;
  media::VideoEncoder video_encoder_;
  media::AudioEncoder audio_encoder_;
  ZoomAdaptation adaptation_;
  rtp::TransportSequencer transport_seq_;
  rtp::Packetizer video_packetizer_;
  rtp::Packetizer audio_packetizer_;
  rtp::TwccSender twcc_;
  rtp::RtxCache rtx_cache_;
  net::PacketIdGenerator& ids_;
  std::unique_ptr<Pacer> pacer_;
  net::PacketHandler outbound_;
  media::QoeCollector* qoe_ = nullptr;

  sim::PeriodicTimer audio_timer_;
  sim::EventHandle video_timer_;
  bool running_ = false;
  media::SvcMode timer_mode_ = media::SvcMode::kHighFps28;
  std::uint64_t media_packets_sent_ = 0;
  std::uint64_t feedback_received_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace athena::app
