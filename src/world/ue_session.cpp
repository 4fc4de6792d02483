#include "world/ue_session.hpp"

#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/runner.hpp"

namespace athena::world {

UeSession::UeSession(sim::Simulator& sim, Config config, std::function<void(WorldMsg&&)> post)
    : sim_(sim),
      config_(std::move(config)),
      post_(std::move(post)),
      cap_sender_(sim, "ue" + std::to_string(config_.ue) + ".sender"),
      cap_core_(sim, "ue" + std::to_string(config_.ue) + ".core"),
      cap_receiver_(sim, "ue" + std::to_string(config_.ue) + ".receiver"),
      serving_cell_(config_.initial_cell) {
  // Per-component RNG sub-streams derived from the per-UE seed: the
  // session's behaviour is a pure function of (world seed, ue).
  sender_ = std::make_unique<app::VcaSender>(
      sim_, config_.sender, std::make_unique<app::GccController>(config_.gcc), ids_,
      sim::Rng{sim::DeriveSeed(config_.seed, 1)});
  sender_->set_qoe(&qoe_);
  receiver_ = std::make_unique<app::VcaReceiver>(sim_, config_.receiver, ids_, qoe_);

  wan_ = std::make_unique<net::FixedDelayLink>(
      sim_, net::FixedDelayLink::Config{config_.wan_delay, config_.wan_jitter, 0.0},
      sim::Rng{sim::DeriveSeed(config_.seed, 2)});
  feedback_ = std::make_unique<net::FixedDelayLink>(
      sim_,
      net::FixedDelayLink::Config{config_.feedback_delay, sim::Duration{0}, 0.0},
      sim::Rng{sim::DeriveSeed(config_.seed, 3)});

  // Uplink: sender → ① → (handover buffer |) mailbox to the serving cell.
  sender_->set_outbound(cap_sender_.AsHandler());
  cap_sender_.set_sink([this](const net::Packet& p) {
    if (in_handover_) {
      buffer_.push_back(p);
    } else {
      PostUplink(p);
    }
  });

  // Downlink tail: core ② → WAN → ④ → receiver.
  cap_core_.set_sink(wan_->AsHandler());
  wan_->set_sink(cap_receiver_.AsHandler());
  cap_receiver_.set_sink(receiver_->AsHandler());

  // Feedback (TWCC/NACK): receiver → fixed link → sender.
  receiver_->set_feedback_path(feedback_->AsHandler());
  feedback_->set_sink(sender_->FeedbackHandler());
}

void UeSession::Start() {
  sender_->Start();
  for (const HandoverPlan& plan : config_.handovers) {
    sim_.ScheduleAt(plan.at, [this, target = plan.target_cell] { BeginHandover(target); });
  }
}

void UeSession::Stop() { sender_->Stop(); }

void UeSession::PostUplink(const net::Packet& p) {
  WorldMsg msg;
  msg.kind = WorldMsg::Kind::kUplink;
  msg.src = static_cast<EntityId>(config_.ue);
  msg.dst = serving_cell_;
  msg.seq = next_seq_++;
  msg.arrival = sim_.Now() + config_.lookahead;
  msg.ue = config_.ue;
  msg.pkt = p;
  ++uplink_posted_;
  post_(std::move(msg));
}

void UeSession::ScheduleEvacuation(EntityId target, sim::TimePoint at) {
  if (evac_pending_ || stranded_) return;
  evac_pending_ = true;
  // One tick after the boundary: the event lands strictly inside the
  // next window, after any same-boundary slot work, identically at every
  // shard layout.
  sim_.ScheduleAt(at + sim::Duration{1}, [this, target] {
    if (in_handover_ || target == serving_cell_) {
      // A planned handover raced in (possibly *into* the quarantined
      // cell). Stand down; the engine's next boundary sweep re-checks.
      evac_pending_ = false;
      return;
    }
    BeginHandover(target);
  });
}

void UeSession::BeginHandover(EntityId target) {
  if (in_handover_ || target == serving_cell_) return;
  in_handover_ = true;
  WorldMsg msg;
  msg.kind = WorldMsg::Kind::kDetach;
  msg.src = static_cast<EntityId>(config_.ue);
  msg.dst = serving_cell_;
  msg.seq = next_seq_++;
  msg.arrival = sim_.Now() + config_.lookahead;
  msg.ue = config_.ue;
  msg.target_cell = target;
  post_(std::move(msg));
}

void UeSession::OnMessage(WorldMsg& msg) {
  switch (msg.kind) {
    case WorldMsg::Kind::kCoreDelivery:
      ++core_received_;
      cap_core_.OnPacket(msg.pkt);
      break;
    case WorldMsg::Kind::kAttached: {
      ATHENA_CHECK(in_handover_, "kAttached outside a handover");
      serving_cell_ = msg.src;
      in_handover_ = false;
      ++handovers_completed_;
      if (evac_pending_) {
        evac_pending_ = false;
        ++forced_handovers_;
      }
      // Flush datagrams buffered during the radio-state transfer, in
      // arrival order (the UE-side RRC stall releasing).
      std::vector<net::Packet> pending;
      pending.swap(buffer_);
      for (const net::Packet& p : pending) PostUplink(p);
      break;
    }
    default:
      ATHENA_CHECK(false, "unexpected message kind at session");
  }
}

core::CorrelatorInput UeSession::BuildCorrelatorInput(std::vector<ran::TbRecord> telemetry,
                                                      const ran::RanConfig& cell) const {
  core::CorrelatorInput input;
  input.sender = cap_sender_.log().ToVector();
  input.core = cap_core_.log().ToVector();
  input.receiver = cap_receiver_.log().ToVector();
  input.telemetry = std::move(telemetry);
  // All session clocks are the common clock in the world (no drift
  // modeled); offsets stay zero.
  input.cell = cell;
  // The correlator replays slot eligibility from the ① capture, but a
  // world packet spends one mailbox hop before reaching the cell's RLC
  // buffer — fold that hop into the visible processing delay, and the
  // core hop into the gNB→core delay, so the replay matches reality.
  input.cell.ue_processing_delay = cell.ue_processing_delay + config_.lookahead;
  input.cell.gnb_to_core_delay = std::max(config_.lookahead, cell.gnb_to_core_delay);
  return input;
}

void UeSession::AppendDigest(std::vector<std::uint64_t>& out) const {
  out.push_back(uplink_posted_);
  out.push_back(core_received_);
  out.push_back(handovers_completed_);
  out.push_back(forced_handovers_);
  out.push_back(serving_cell_);
  out.push_back(static_cast<std::uint64_t>(in_handover_));
  out.push_back(static_cast<std::uint64_t>(evac_pending_));
  out.push_back(static_cast<std::uint64_t>(stranded_));
  out.push_back(buffer_.size());
  out.push_back(sender_->media_packets_sent());
  out.push_back(receiver_->packets_received());
  out.push_back(cap_sender_.count());
  out.push_back(cap_core_.count());
  out.push_back(cap_receiver_.count());
}

}  // namespace athena::world
