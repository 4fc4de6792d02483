#include "app/two_party.hpp"

namespace athena::app {

TwoPartySession::TwoPartySession(sim::Simulator& sim, TwoPartyConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {
  cap_a_out_ = std::make_unique<net::CapturePoint>(sim_, "a-out");
  cap_core_up_ = std::make_unique<net::CapturePoint>(sim_, "core-up");
  cap_b_in_ = std::make_unique<net::CapturePoint>(sim_, "b-in");
  cap_b_out_ = std::make_unique<net::CapturePoint>(sim_, "b-out");
  cap_core_down_ = std::make_unique<net::CapturePoint>(sim_, "core-down");
  cap_a_in_ = std::make_unique<net::CapturePoint>(sim_, "a-in");

  ran::CrossTraffic::Config up_cross;
  up_cross.demand = config_.uplink_cross_traffic;
  up_cross.burstiness = config_.cross_burstiness;
  uplink_ = std::make_unique<ran::RanUplink>(
      sim_, config_.cell, ran::ChannelModel{config_.channel, rng_.Fork()},
      ran::CrossTraffic{up_cross, rng_.Fork()});

  ran::CrossTraffic::Config down_cross;
  down_cross.demand = config_.downlink_cross_traffic;
  down_cross.burstiness = config_.cross_burstiness;
  downlink_ = std::make_unique<ran::RanDownlink>(
      sim_, config_.cell, ran::ChannelModel{config_.channel, rng_.Fork()},
      ran::CrossTraffic{down_cross, rng_.Fork()});

  auto wan = [&](sim::Duration delay) {
    return std::make_unique<net::FixedDelayLink>(
        sim_, net::FixedDelayLink::Config{.delay = delay, .jitter_stddev = config_.wan_jitter},
        rng_.Fork());
  };
  wan_up_ = wan(config_.wan_delay);
  wan_b_ = wan(config_.wan_delay);
  wired_b_ = wan(config_.wired_party_delay);
  wan_down_ = wan(config_.wan_delay);
  sfu_ab_ = std::make_unique<SfuServer>(sim_, config_.sfu, rng_.Fork());
  sfu_ba_ = std::make_unique<SfuServer>(sim_, config_.sfu, rng_.Fork());

  // Distinct SSRCs/flows per direction keep the correlators unambiguous.
  config_.sender_b.video_ssrc = 0x30;
  config_.sender_b.audio_ssrc = 0x40;
  config_.sender_b.flow = 2;

  sender_a_ = std::make_unique<VcaSender>(sim_, config_.sender_a,
                                          std::make_unique<GccController>(), ids_, rng_.Fork());
  sender_b_ = std::make_unique<VcaSender>(sim_, config_.sender_b,
                                          std::make_unique<GccController>(), ids_, rng_.Fork());
  receiver_a_ = std::make_unique<VcaReceiver>(sim_, VcaReceiver::DefaultConfig(), ids_, qoe_a_);
  receiver_b_ = std::make_unique<VcaReceiver>(sim_, VcaReceiver::DefaultConfig(), ids_, qoe_b_);
  sender_a_->set_qoe(&qoe_b_);  // A's media is experienced at B
  sender_b_->set_qoe(&qoe_a_);

  // ---- A → B: up the 5G uplink ----
  sender_a_->set_outbound(cap_a_out_->AsHandler());
  cap_a_out_->set_sink(uplink_->AsHandler());
  uplink_->set_core_sink(cap_core_up_->AsHandler());
  cap_core_up_->set_sink(wan_up_->AsHandler());
  wan_up_->set_sink(sfu_ab_->AsHandler());
  sfu_ab_->set_forward_path(wan_b_->AsHandler());
  wan_b_->set_sink(cap_b_in_->AsHandler());
  // B's host demultiplexes: media to the receiver, RTCP to the sender.
  cap_b_in_->set_sink([this](const net::Packet& p) {
    if (p.is_media()) {
      receiver_b_->OnPacket(p);
    } else {
      sender_b_->OnFeedbackPacket(p);
    }
  });

  // ---- B → A: down the 5G downlink ----
  sender_b_->set_outbound(cap_b_out_->AsHandler());
  cap_b_out_->set_sink(wired_b_->AsHandler());
  wired_b_->set_sink(sfu_ba_->AsHandler());
  sfu_ba_->set_forward_path(wan_down_->AsHandler());
  wan_down_->set_sink(cap_core_down_->AsHandler());
  cap_core_down_->set_sink(downlink_->AsHandler());
  downlink_->set_ue_sink(cap_a_in_->AsHandler());
  cap_a_in_->set_sink([this](const net::Packet& p) {
    if (p.is_media()) {
      receiver_a_->OnPacket(p);
    } else {
      sender_a_->OnFeedbackPacket(p);
    }
  });

  // ---- feedback paths ride the media paths of the opposite direction ----
  // B's reports about A's media travel B → SFU → core → 5G downlink → A.
  receiver_b_->set_feedback_path(wired_b_->AsHandler());
  // A's reports about B's media are uplink traffic: they enter A's egress
  // capture and share the RLC queue with A's own media.
  receiver_a_->set_feedback_path(cap_a_out_->AsHandler());
}

TwoPartySession::~TwoPartySession() { Stop(); }

void TwoPartySession::Start() {
  if (running_) return;
  running_ = true;
  uplink_->Start();
  downlink_->Start();
  receiver_a_->Start();
  receiver_b_->Start();
  sender_a_->Start();
  sender_b_->Start();
}

void TwoPartySession::Stop() {
  if (!running_) return;
  running_ = false;
  sender_a_->Stop();
  sender_b_->Stop();
  receiver_a_->Stop();
  receiver_b_->Stop();
  uplink_->Stop();
  downlink_->Stop();
}

void TwoPartySession::Run(sim::Duration span) {
  Start();
  sim_.RunFor(span);
  Stop();
}

core::CorrelatorInput TwoPartySession::BuildUplinkCorrelatorInput() const {
  core::CorrelatorInput input;
  input.sender = cap_a_out_->log().ToVector();
  input.core = cap_core_up_->log().ToVector();
  input.receiver = cap_b_in_->log().ToVector();
  input.telemetry = uplink_->telemetry();
  input.cell = config_.cell;
  return input;  // all clocks in this session are true (offset 0)
}

core::CorrelatorInput TwoPartySession::BuildDownlinkCorrelatorInput() const {
  core::CorrelatorInput input;
  input.sender = cap_core_down_->log().ToVector();
  input.core = cap_a_in_->log().ToVector();
  input.telemetry = downlink_->telemetry();
  // Root-cause thresholds must scale with the DL slot grid; the downlink
  // has no grant cycle, so the BSR delay is moot (kept for completeness).
  input.cell = config_.cell;
  input.cell.ul_slot_period = downlink_->slot_period();
  input.cell.proactive_grant_bytes = 0;
  return input;
}

}  // namespace athena::app
