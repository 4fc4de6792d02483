#include "ran/multi_ue.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"

namespace athena::ran {

MultiUeUplink::MultiUeUplink(sim::Simulator& sim, RanConfig config, std::uint32_t cell_tag,
                             std::unique_ptr<MultiUeGrantPolicy> policy,
                             CrossTraffic cross_traffic, bool record_truth)
    : sim_(sim),
      config_(config),
      policy_(policy ? std::move(policy) : std::make_unique<SharedBsrGrantPolicy>(config)),
      cross_traffic_(std::move(cross_traffic)),
      record_truth_(record_truth),
      next_tb_id_((static_cast<TbId>(cell_tag) << 40) + 1) {}

void MultiUeUplink::Start() {
  if (started_) return;
  started_ = true;
  // Align the first slot to the UL grid (slot 0 lives at the epoch).
  const auto period = config_.ul_slot_period.count();
  const auto now = sim_.Now().us();
  const auto next = ((now / period) + 1) * period;
  slot_timer_ =
      sim_.ScheduleAt(sim::TimePoint{sim::Duration{next}}, [this] { OnUplinkSlot(); });
}

void MultiUeUplink::Stop() {
  if (!started_) return;
  started_ = false;
  sim_.Cancel(slot_timer_);
}

void MultiUeUplink::AttachUe(std::uint32_t ue, UeRadioState state) {
  const bool inserted = ues_.try_emplace(ue, std::move(state)).second;
  ATHENA_CHECK(inserted, "AttachUe: UE already attached to this cell");
}

UeRadioState MultiUeUplink::DetachUe(std::uint32_t ue) {
  auto it = ues_.find(ue);
  ATHENA_CHECK(it != ues_.end(), "DetachUe: UE not attached to this cell");
  UeRadioState state = std::move(it->second);
  ues_.erase(it);
  policy_->OnUeRemoved(ue);

  // Drop the UE's pending HARQ retransmissions: the source gNB's soft
  // buffers do not follow the UE (RLC-UM). Each dropped chain's
  // not-yet-delivered packets become handover loss.
  for (auto& [slot_us, due] : pending_rtx_) {
    auto first_removed = std::stable_partition(
        due.begin(), due.end(), [ue](const Tb& tb) { return tb.ue != ue; });
    for (auto tb_it = first_removed; tb_it != due.end(); ++tb_it) {
      DropChain(state, *tb_it, sim_.Now());
    }
    due.erase(first_removed, due.end());
  }
  return state;
}

std::vector<std::uint32_t> MultiUeUplink::AttachedUes() const {
  std::vector<std::uint32_t> out;
  out.reserve(ues_.size());
  for (const auto& [ue, state] : ues_) out.push_back(ue);
  return out;
}

const UeRadioState* MultiUeUplink::FindUe(std::uint32_t ue) const {
  const auto it = ues_.find(ue);
  return it == ues_.end() ? nullptr : &it->second;
}

void MultiUeUplink::SendFromUe(std::uint32_t ue, const net::Packet& p) {
  auto it = ues_.find(ue);
  ATHENA_CHECK(it != ues_.end(), "SendFromUe: traffic offered for an unattached UE");
  UeRadioState& state = it->second;
  const sim::TimePoint now = sim_.Now();
  assert((state.queue.empty() || state.queue.back().enqueued_at <= now) &&
         "RLC FIFO must stay ordered by enqueue time");
  state.queue.push_back(UeQueuedPacket{p.id, p.size_bytes, now});
  state.queued_bytes += p.size_bytes;
  state.in_flight.emplace(p.id, UeDeliveryState{p, p.size_bytes, now});
  ++state.offered;
}

bool MultiUeUplink::SlotSkipped(sim::TimePoint slot_time) const {
  if (outage_end_ > outage_start_ && slot_time >= outage_start_ && slot_time < outage_end_) {
    return true;
  }
  return !ues_.empty() && std::all_of(ues_.begin(), ues_.end(), [](const auto& entry) {
    return entry.second.channel.in_handover();
  });
}

void MultiUeUplink::OnUplinkSlot() {
  const sim::TimePoint slot_time = sim_.Now();
  ++slot_index_;

  // Every attached UE's radio advances, skipped slot or not.
  for (auto& [ue, state] : ues_) state.channel.Tick(config_.ul_slot_period);

  if (obs::trace_enabled()) {
    std::uint32_t cell_buffer = 0;
    for (const auto& [ue, state] : ues_) cell_buffer += state.TotalBufferBytes();
    obs::TraceCounter(obs::Layer::kRan, obs::names::kRanRlcBytes, slot_time,
                      static_cast<double>(cell_buffer));
  }

  // With no serving radio (outage, or every UE mid-handover) nothing
  // transmits and pending HARQ retransmissions slide to the next slot.
  // Everything else queues — the source of the seconds-scale delay tail
  // under mobility.
  if (SlotSkipped(slot_time)) {
    const auto due = pending_rtx_.find(slot_time.us());
    if (due != pending_rtx_.end()) {
      auto& next = pending_rtx_[(slot_time + config_.ul_slot_period).us()];
      for (auto& tb : due->second) next.push_back(std::move(tb));
      pending_rtx_.erase(due);
    }
    slot_timer_ = sim_.ScheduleAfter(config_.ul_slot_period, [this] { OnUplinkSlot(); });
    return;
  }

  // Capacity budget for this slot: cell capacity minus competing UEs.
  const std::uint32_t slot_capacity = config_.SlotCapacityBytes();
  const std::uint32_t cross =
      std::min(cross_traffic_.DemandBytes(slot_time, config_.ul_slot_period), slot_capacity);
  std::uint32_t available = slot_capacity - cross;

  // HARQ retransmissions preempt new data (they reuse their original
  // allocation, so they always fit; clamp the remaining budget).
  const auto rtx_it = pending_rtx_.find(slot_time.us());
  if (rtx_it != pending_rtx_.end()) {
    std::vector<Tb> due = std::move(rtx_it->second);
    pending_rtx_.erase(rtx_it);
    for (Tb& tb : due) {
      auto ue_it = ues_.find(tb.ue);
      ATHENA_CHECK(ue_it != ues_.end(), "HARQ retransmission for a UE not attached to this cell");
      available = available > tb.tbs ? available - tb.tbs : 0;
      Transmit(ue_it->second, std::move(tb), slot_time);
    }
  }

  // Divide what is left among the population.
  demand_.clear();
  for (const auto& entry : ues_) demand_.push_back(MultiUeGrantPolicy::UeDemand{entry.first});
  policy_->OnUplinkSlot(slot_time, slot_index_, available, demand_, allocations_);

  // Transmit in UE-id order (the policy contract). A UE that got no PUSCH
  // surfaces its demand via a scheduling request on the control channel
  // (robust, not subject to data CRC). Both walks are in UE-id order.
  for (const auto& alloc : allocations_) {
    auto it = ues_.find(alloc.ue);
    if (it == ues_.end() || alloc.tbs_bytes == 0) continue;
    TransmitNewTb(it->second, alloc, slot_time);
  }
  auto granted = allocations_.begin();
  for (auto& [ue, state] : ues_) {
    while (granted != allocations_.end() && granted->ue < ue) ++granted;
    if (granted != allocations_.end() && granted->ue == ue && granted->tbs_bytes > 0) continue;
    const std::uint32_t buffered = state.TotalBufferBytes();
    if (buffered == 0) continue;
    ++counters_.bsr_sent;
    policy_->OnBsrDecoded(ue, slot_time, buffered);
  }

  slot_timer_ = sim_.ScheduleAfter(config_.ul_slot_period, [this] { OnUplinkSlot(); });
}

void MultiUeUplink::TransmitNewTb(UeRadioState& ue_state,
                                  const MultiUeGrantPolicy::Allocation& alloc,
                                  sim::TimePoint slot_time) {
  Tb tb;
  tb.ue = alloc.ue;
  tb.id = next_tb_id_++;
  tb.chain_id = tb.id;
  tb.grant = alloc.grant;
  tb.tbs = alloc.tbs_bytes;
  tb.round = 0;
  tb.first_tx_slot = slot_time;

  // Fill from this UE's RLC buffer: packets that reached the modem early
  // enough for this slot, in FIFO order, with segmentation.
  std::uint32_t room = tb.tbs;
  while (room > 0 && !ue_state.queue.empty()) {
    UeQueuedPacket& head = ue_state.queue.front();
    if (head.enqueued_at + config_.ue_processing_delay > slot_time) break;
    const std::uint32_t take = std::min(room, head.remaining);
    head.remaining -= take;
    ue_state.queued_bytes -= take;
    room -= take;
    tb.segments.push_back(Segment{head.id, take, head.remaining == 0});
    if (config_.ecn_marking_threshold.count() > 0 &&
        slot_time - head.enqueued_at > config_.ecn_marking_threshold) {
      const auto flight = ue_state.in_flight.find(head.id);
      if (flight != ue_state.in_flight.end()) flight->second.pkt.ecn_ce = true;
      ++counters_.ecn_marked;
    }
    if (head.remaining == 0) ue_state.queue.pop_front();
  }
  tb.used = tb.tbs - room;

  // Piggy-backed BSR: reports the buffer left *after* this fill; decoded
  // by the gNB only if (a round of) the TB decodes.
  const std::uint32_t remaining = ue_state.TotalBufferBytes();
  if (remaining > 0) {
    tb.has_bsr = true;
    tb.bsr_bytes = remaining;
    ++counters_.bsr_sent;
  }

  ++counters_.tb_new;
  counters_.granted_bytes += tb.tbs;
  counters_.used_bytes += tb.used;
  if (tb.used < tb.tbs) {
    const std::uint32_t waste = tb.tbs - tb.used;
    if (tb.grant == GrantType::kRequested) {
      counters_.wasted_requested_bytes += waste;
    } else {
      counters_.wasted_proactive_bytes += waste;
    }
  }

  if (record_truth_) {
    truth_index_[tb.chain_id] = truth_.size();
    TbTruth truth;
    truth.chain_id = tb.chain_id;
    truth.first_tx_slot = slot_time;
    for (const auto& seg : tb.segments) {
      truth.segments.push_back(SegmentTruth{seg.packet_id, seg.bytes, seg.last});
    }
    truth_.push_back(std::move(truth));
  }

  Transmit(ue_state, std::move(tb), slot_time);
}

void MultiUeUplink::Transmit(UeRadioState& ue_state, Tb tb, sim::TimePoint slot_time) {
  ++counters_.tb_transmissions;
  static thread_local obs::CachedCounter counter_tb_transmissions{"ran.tb_transmissions"};
  counter_tb_transmissions.Inc();
  if (tb.round > 0) {
    ++counters_.tb_rtx;
    static thread_local obs::CachedCounter counter_tb_rtx{"ran.tb_rtx"};
    counter_tb_rtx.Inc();
    if (tb.used == 0) ++counters_.empty_tb_rtx;
  }
  if (tb.used == 0) ++counters_.empty_tb_transmissions;

  const bool crc_ok = ue_state.channel.SampleCrcOk(tb.round);
  RecordTelemetry(ue_state, tb, slot_time, crc_ok);

  if (crc_ok) {
    OnTbDecoded(ue_state, tb, slot_time);
    return;
  }

  ++counters_.tb_failed;
  if (tb.round + 1 >= config_.max_harq_rounds) {
    DropChain(ue_state, tb, slot_time);
    return;
  }
  // The gNB NACKs; the UE retransmits one rtx_delay later. The base
  // station requires this even of empty TBs (§3.2's waste observation).
  Tb rtx = std::move(tb);
  ++rtx.round;
  // Align the retransmission to the UL slot grid (rtx_delay is a grid
  // multiple in the paper's cell, but arbitrary configs must not lose TBs).
  const auto period = config_.ul_slot_period.count();
  const auto target = (slot_time + config_.rtx_delay).us();
  const auto aligned = ((target + period - 1) / period) * period;
  pending_rtx_[aligned].push_back(std::move(rtx));
}

void MultiUeUplink::OnTbDecoded(UeRadioState& ue_state, const Tb& tb,
                                sim::TimePoint slot_time) {
  // Segments land; packets whose bytes are now all delivered leave for
  // the core.
  for (const auto& seg : tb.segments) {
    auto it = ue_state.in_flight.find(seg.packet_id);
    if (it == ue_state.in_flight.end()) continue;  // aborted by a dropped chain
    UeDeliveryState& state = it->second;
    ATHENA_CHECK(state.undelivered >= seg.bytes,
                 "OnTbDecoded: segment larger than the packet's undelivered bytes");
    state.undelivered -= seg.bytes;
    if (state.undelivered == 0) {
      const UeDeliveryState done = std::move(state);
      ue_state.in_flight.erase(it);
      ++ue_state.delivered;
      ++counters_.packets_delivered;
      static thread_local obs::CachedCounter counter_packets_delivered{"ran.packets_delivered"};
      counter_packets_delivered.Inc();
      if (deliver_) deliver_(tb.ue, done, slot_time);
    }
  }

  if (tb.round > 0) {
    // The HARQ chain needed retransmissions: its whole first-tx → decode
    // life is the "rtx inflation" the correlator will later blame.
    obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kHarqChain, tb.chain_id, tb.first_tx_slot,
                        slot_time,
                        {{"rounds", static_cast<double>(tb.round)},
                         {"used_bytes", static_cast<double>(tb.used)}});
  }

  if (tb.has_bsr) policy_->OnBsrDecoded(tb.ue, slot_time, tb.bsr_bytes);
  policy_->OnTbFilled(tb.first_tx_slot,
                      MultiUeGrantPolicy::Allocation{tb.ue, tb.tbs, tb.grant}, tb.used);

  if (TbTruth* truth = TruthFor(tb.chain_id)) truth->delivered_at = slot_time;
}

void MultiUeUplink::DropChain(UeRadioState& ue_state, const Tb& tb, sim::TimePoint now) {
  ++counters_.tb_dropped_chains;
  obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kHarqChain, tb.chain_id, tb.first_tx_slot,
                      now, {{"rounds", static_cast<double>(tb.round)}, {"dropped", 1.0}});
  for (const auto& seg : tb.segments) {
    auto it = ue_state.in_flight.find(seg.packet_id);
    if (it == ue_state.in_flight.end()) continue;
    ue_state.in_flight.erase(it);
    ++ue_state.lost;
    ++counters_.packets_lost;
    static thread_local obs::CachedCounter counter_packets_lost{"ran.packets_lost"};
    counter_packets_lost.Inc();
  }
  if (TbTruth* truth = TruthFor(tb.chain_id)) {
    truth->dropped = true;
    truth->delivered_at = now;
  }
}

void MultiUeUplink::RecordTelemetry(UeRadioState& ue_state, const Tb& tb,
                                    sim::TimePoint slot_time, bool crc_ok) {
  ue_state.telemetry.push_back(TbRecord{
      .tb_id = tb.round == 0 ? tb.id : next_tb_id_++,
      .chain_id = tb.chain_id,
      .slot_time = slot_time,
      .grant = tb.grant,
      .tbs_bytes = tb.tbs,
      .used_bytes = tb.used,
      .harq_round = tb.round,
      .crc_ok = crc_ok,
  });
  if (telemetry_listener_) telemetry_listener_(ue_state.telemetry.back());
  obs::TraceInstant(obs::Layer::kRan, tb.round == 0 ? obs::names::kTbTx : obs::names::kTbRtx,
                    slot_time,
                    {{"tbs", static_cast<double>(tb.tbs)},
                     {"used", static_cast<double>(tb.used)},
                     {"round", static_cast<double>(tb.round)},
                     {"crc_ok", crc_ok ? 1.0 : 0.0},
                     {"grant", tb.grant == GrantType::kRequested ? 1.0 : 0.0}});
}

TbTruth* MultiUeUplink::TruthFor(TbId chain_id) {
  if (!record_truth_) return nullptr;
  const auto it = truth_index_.find(chain_id);
  return it == truth_index_.end() ? nullptr : &truth_[it->second];
}

}  // namespace athena::ran
