#include "app/session.hpp"

#include "core/clock_sync.hpp"

namespace athena::app {

namespace {

std::unique_ptr<RateController> MakeController(const SessionConfig& config) {
  if (config.controller_factory) return config.controller_factory();
  switch (config.controller) {
    case SessionConfig::Controller::kNada:
      return std::make_unique<NadaRateController>(config.nada);
    case SessionConfig::Controller::kScream:
      return std::make_unique<ScreamRateController>(config.scream);
    case SessionConfig::Controller::kL4s:
      return std::make_unique<L4sRateController>(config.l4s);
    case SessionConfig::Controller::kGcc:
      break;
  }
  return std::make_unique<GccController>(config.gcc);
}

}  // namespace

Session::Session(sim::Simulator& sim, SessionConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {
  // The L4S controller needs the modem's marker; default it on when the
  // user picked L4S but left the threshold unset. The threshold sits
  // *above* the predictable scheduling artifacts (one BSR cycle ≈
  // 12.5 ms) so that the §3.1 delay spreads do not read as congestion —
  // §5.3's open question ("how should control of the accelerate-brake
  // signal be defined in the presence of … predictable delay spikes and
  // spreads?") answered the RAN-aware way.
  if (config_.controller == SessionConfig::Controller::kL4s &&
      config_.cell.ecn_marking_threshold.count() == 0) {
    config_.cell.ecn_marking_threshold =
        config_.cell.bsr_scheduling_delay + 2 * config_.cell.ul_slot_period;
  }
  // --- capture points with their hosts' clocks ---
  cap_sender_ = std::make_unique<net::CapturePoint>(
      sim_, "sender",
      net::HostClock{config_.sender_clock_offset, config_.sender_clock_drift_ppm});
  cap_core_ = std::make_unique<net::CapturePoint>(sim_, "core");  // reference clock
  cap_sfu_in_ = std::make_unique<net::CapturePoint>(sim_, "sfu-in");
  cap_sfu_out_ = std::make_unique<net::CapturePoint>(sim_, "sfu-out");
  cap_receiver_ = std::make_unique<net::CapturePoint>(
      sim_, "receiver", net::HostClock{config_.receiver_clock_offset, 0.0});

  // --- access network ---
  if (config_.access == SessionConfig::Access::k5G) {
    ran::CrossTraffic::Config cross_config;
    cross_config.demand = config_.cross_traffic;
    cross_config.burstiness = config_.cross_burstiness;
    cross_config.modulation_sigma = config_.cross_modulation_sigma;
    ran::CrossTraffic cross{cross_config, rng_.Fork()};
    auto policy = config_.grant_policy ? config_.grant_policy(config_.cell) : nullptr;
    ran_uplink_ = std::make_unique<ran::RanUplink>(
        sim_, config_.cell, ran::ChannelModel{config_.channel, rng_.Fork()},
        std::move(cross), std::move(policy));
    downlink_ = std::make_unique<ran::DownlinkPath>(
        ran::DownlinkPath::ForCell(sim_, config_.cell, rng_.Fork()));
  } else if (config_.access == SessionConfig::Access::kWifiLike) {
    wifi_uplink_ = std::make_unique<net::WifiLikeLink>(sim_, config_.wifi, rng_.Fork());
    wifi_downlink_ = std::make_unique<net::WifiLikeLink>(sim_, config_.wifi, rng_.Fork());
  } else if (config_.access == SessionConfig::Access::kLeoSat) {
    leo_uplink_ = std::make_unique<net::LeoSatLink>(sim_, config_.leo);
    leo_downlink_ = std::make_unique<net::LeoSatLink>(sim_, config_.leo);
  } else {
    emulated_uplink_ = std::make_unique<net::RateLimitedLink>(
        sim_, net::RateLimitedLink::Config{
                  .capacity = config_.emulated_capacity,
                  .propagation = config_.emulated_latency,
                  .max_queue_packets = 2000,
              });
    emulated_downlink_ = std::make_unique<net::FixedDelayLink>(
        sim_, net::FixedDelayLink::Config{.delay = config_.emulated_latency}, rng_.Fork());
  }

  // --- WAN and SFU ---
  wan_to_sfu_ = std::make_unique<net::FixedDelayLink>(
      sim_, net::FixedDelayLink::Config{.delay = config_.wan_delay,
                                        .jitter_stddev = config_.wan_jitter},
      rng_.Fork());
  wan_to_receiver_ = std::make_unique<net::FixedDelayLink>(
      sim_, net::FixedDelayLink::Config{.delay = config_.wan_delay,
                                        .jitter_stddev = config_.wan_jitter},
      rng_.Fork());
  sfu_ = std::make_unique<SfuServer>(sim_, config_.sfu, rng_.Fork());

  // --- feedback return path (receiver → SFU → core → downlink → sender) ---
  feedback_wan_ = std::make_unique<net::FixedDelayLink>(
      sim_, net::FixedDelayLink::Config{.delay = config_.wan_delay + config_.wan_delay,
                                        .jitter_stddev = config_.wan_jitter},
      rng_.Fork());

  // --- ICMP probing from the core towards the SFU ---
  if (config_.icmp_enabled) {
    icmp_prober_ = std::make_unique<net::IcmpProber>(
        sim_, net::IcmpProber::Config{.interval = config_.icmp_interval}, ids_);
    icmp_responder_ = std::make_unique<net::IcmpResponder>(sim_);
    icmp_out_ = std::make_unique<net::FixedDelayLink>(
        sim_, net::FixedDelayLink::Config{.delay = config_.wan_delay,
                                          .jitter_stddev = config_.wan_jitter},
        rng_.Fork());
    icmp_back_ = std::make_unique<net::FixedDelayLink>(
        sim_, net::FixedDelayLink::Config{.delay = config_.wan_delay,
                                          .jitter_stddev = config_.wan_jitter},
        rng_.Fork());
  }

  // --- endpoints ---
  sender_ = std::make_unique<VcaSender>(sim_, config_.sender, MakeController(config_), ids_,
                                        rng_.Fork());
  sender_->set_qoe(&qoe_);
  receiver_ = std::make_unique<VcaReceiver>(sim_, config_.receiver, ids_, qoe_);

  WireMediaPath();
}

Session::~Session() { Stop(); }

void Session::WireMediaPath() {
  // Uplink: sender → ① → access → ② → WAN → ③ → SFU → ③* → WAN → ④ → receiver.
  sender_->set_outbound(cap_sender_->AsHandler());
  if (ran_uplink_) {
    cap_sender_->set_sink(ran_uplink_->AsHandler());
    ran_uplink_->set_core_sink(cap_core_->AsHandler());
  } else if (wifi_uplink_) {
    cap_sender_->set_sink(wifi_uplink_->AsHandler());
    wifi_uplink_->set_sink(cap_core_->AsHandler());
  } else if (leo_uplink_) {
    cap_sender_->set_sink(leo_uplink_->AsHandler());
    leo_uplink_->set_sink(cap_core_->AsHandler());
  } else {
    cap_sender_->set_sink(emulated_uplink_->AsHandler());
    emulated_uplink_->set_sink(cap_core_->AsHandler());
  }
  cap_core_->set_sink(wan_to_sfu_->AsHandler());
  wan_to_sfu_->set_sink(cap_sfu_in_->AsHandler());

  // The SFU host demultiplexes: ICMP echoes are reflected in the kernel
  // (no app-layer processing — the point of the Fig. 3 comparison);
  // media goes through the SFU process.
  cap_sfu_in_->set_sink([this](const net::Packet& p) {
    if (p.kind == net::PacketKind::kIcmpEcho) {
      if (icmp_responder_) icmp_responder_->OnPacket(p);
      return;
    }
    sfu_->OnPacket(p);
  });
  sfu_->set_forward_path(cap_sfu_out_->AsHandler());
  cap_sfu_out_->set_sink(wan_to_receiver_->AsHandler());
  wan_to_receiver_->set_sink(cap_receiver_->AsHandler());
  cap_receiver_->set_sink(receiver_->AsHandler());

  // Feedback: receiver → WAN (through the SFU region) → core → downlink.
  receiver_->set_feedback_path(feedback_wan_->AsHandler());
  if (downlink_) {
    feedback_wan_->set_sink(downlink_->AsHandler());
    downlink_->set_ue_sink(sender_->FeedbackHandler());
  } else if (wifi_downlink_) {
    feedback_wan_->set_sink(wifi_downlink_->AsHandler());
    wifi_downlink_->set_sink(sender_->FeedbackHandler());
  } else if (leo_downlink_) {
    feedback_wan_->set_sink(leo_downlink_->AsHandler());
    leo_downlink_->set_sink(sender_->FeedbackHandler());
  } else {
    feedback_wan_->set_sink(emulated_downlink_->AsHandler());
    emulated_downlink_->set_sink(sender_->FeedbackHandler());
  }

  // ICMP: core → WAN → SFU kernel → WAN → core.
  if (icmp_prober_) {
    icmp_prober_->set_outbound(icmp_out_->AsHandler());
    icmp_out_->set_sink(cap_sfu_in_->AsHandler());
    icmp_responder_->set_return_path(icmp_back_->AsHandler());
    icmp_back_->set_sink([this](const net::Packet& p) { icmp_prober_->OnReply(p); });
  }
}

void Session::Start() {
  if (running_) return;
  running_ = true;
  if (ran_uplink_) ran_uplink_->Start();
  receiver_->Start();
  sender_->Start();
  if (icmp_prober_) icmp_prober_->Start();
}

void Session::Stop() {
  if (!running_) return;
  running_ = false;
  sender_->Stop();
  receiver_->Stop();
  if (icmp_prober_) icmp_prober_->Stop();
  if (ran_uplink_) ran_uplink_->Stop();
}

void Session::Run(sim::Duration span) {
  Start();
  sim_.RunFor(span);
  Stop();
}

core::WifiCorrelatorInput Session::BuildWifiCorrelatorInput() const {
  core::WifiCorrelatorInput input;
  input.sender = cap_sender_->log().ToVector();
  input.egress = cap_core_->log().ToVector();
  if (wifi_uplink_) input.telemetry = wifi_uplink_->telemetry();
  const auto pairs = core::ClockSync::JoinCaptures(input.sender, input.egress);
  if (const auto off = core::ClockSync::OffsetFromMinOwd(pairs, config_.wifi.min_backoff)) {
    input.sender_offset = *off;
  }
  return input;
}

core::CorrelatorInput Session::BuildCorrelatorInput() const {
  core::CorrelatorInput input;
  input.sender = cap_sender_->log().ToVector();
  input.core = cap_core_->log().ToVector();
  input.receiver = cap_receiver_->log().ToVector();
  if (ran_uplink_) input.telemetry = ran_uplink_->telemetry();
  input.cell = config_.cell;

  // Clock-offset estimation, as the measurement pipeline would do it:
  // min-filter the observed OWD against the known wired floor of each path.
  const auto sender_pairs = core::ClockSync::JoinCaptures(input.sender, input.core);
  sim::Duration uplink_floor = config_.emulated_latency;
  switch (config_.access) {
    case SessionConfig::Access::k5G:
      uplink_floor = config_.cell.ue_processing_delay + config_.cell.gnb_to_core_delay;
      break;
    case SessionConfig::Access::kWifiLike:
      uplink_floor = config_.wifi.min_backoff;
      break;
    case SessionConfig::Access::kLeoSat:
      uplink_floor = config_.leo.base_propagation;
      break;
    case SessionConfig::Access::kEmulated:
      break;
  }
  if (const auto off = core::ClockSync::OffsetFromMinOwd(sender_pairs, uplink_floor)) {
    // `off` is the core clock relative to the sender clock; adding it to a
    // sender timestamp lands on the core (common) clock.
    input.sender_offset = *off;
  }

  const auto recv_pairs = core::ClockSync::JoinCaptures(input.core, input.receiver);
  const sim::Duration wan_floor =
      config_.wan_delay + config_.wan_delay + sim::FromMs(config_.sfu.proc_median_ms * 0.5);
  if (const auto off = core::ClockSync::OffsetFromMinOwd(recv_pairs, wan_floor)) {
    // Here `off` is the receiver clock relative to the core clock, so it
    // is *subtracted* to land receiver timestamps on the core clock.
    input.receiver_offset = sim::Duration{-off->count()};
  }
  return input;
}

}  // namespace athena::app
