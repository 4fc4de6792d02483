#include "ran/multi_ue.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"

namespace athena::ran {

std::uint32_t UeRadioState::EligibleBufferBytes(sim::TimePoint slot_time,
                                                sim::Duration processing_delay) const {
  // The queue is ordered by enqueue time, so the packets not yet eligible
  // are exactly a tail: subtract it from the running total.
  std::uint32_t bytes = queued_bytes;
  for (auto it = queue.rbegin();
       it != queue.rend() && it->enqueued_at + processing_delay > slot_time; ++it) {
    bytes -= it->remaining;
  }
  return bytes;
}

MultiUeUplink::MultiUeUplink(sim::Simulator& sim, RanConfig config, std::uint32_t cell_tag,
                             std::unique_ptr<MultiUeGrantPolicy> policy)
    : sim_(sim),
      config_(config),
      policy_(policy ? std::move(policy) : std::make_unique<SharedBsrGrantPolicy>(config)),
      next_tb_id_((static_cast<TbId>(cell_tag) << 40) + 1) {}

void MultiUeUplink::Start() {
  if (started_) return;
  started_ = true;
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
      ++counters_.tb_dropped_chains;
      for (const auto& seg : tb_it->segments) {
        auto flight = state.in_flight.find(seg.packet_id);
        if (flight == state.in_flight.end()) continue;
        state.in_flight.erase(flight);
        ++state.lost;
        ++counters_.packets_lost;
      }
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

void MultiUeUplink::OnUplinkSlot() {
  const sim::TimePoint slot_time = sim_.Now();
  ++slot_index_;

  // Every attached UE's radio advances, outage or not.
  for (auto& [ue, state] : ues_) state.channel.Tick(config_.ul_slot_period);

  if (obs::trace_enabled()) {
    std::uint32_t cell_buffer = 0;
    for (const auto& [ue, state] : ues_) cell_buffer += state.TotalBufferBytes();
    obs::TraceCounter(obs::Layer::kRan, obs::names::kRanRlcBytes, slot_time,
                      static_cast<double>(cell_buffer));
  }

  // A cell-wide outage behaves like RanUplink's handover slots: nothing
  // transmits, pending retransmissions slide forward, demand queues.
  if (InOutage(slot_time)) {
    const auto due = pending_rtx_.find(slot_time.us());
    if (due != pending_rtx_.end()) {
      auto& next = pending_rtx_[(slot_time + config_.ul_slot_period).us()];
      for (auto& tb : due->second) next.push_back(std::move(tb));
      pending_rtx_.erase(due);
    }
    slot_timer_ = sim_.ScheduleAfter(config_.ul_slot_period, [this] { OnUplinkSlot(); });
    return;
  }

  std::uint32_t available = config_.SlotCapacityBytes();

  // HARQ retransmissions preempt new data.
  const auto rtx_it = pending_rtx_.find(slot_time.us());
  if (rtx_it != pending_rtx_.end()) {
    std::vector<Tb> due = std::move(rtx_it->second);
    pending_rtx_.erase(rtx_it);
    for (Tb& tb : due) {
      available = available > tb.tbs ? available - tb.tbs : 0;
      Transmit(std::move(tb), slot_time);
    }
  }

  // Divide what is left among the population.
  std::vector<MultiUeGrantPolicy::UeDemand> demand;
  demand.reserve(ues_.size());
  for (const auto& [ue, state] : ues_) {
    demand.push_back(MultiUeGrantPolicy::UeDemand{
        ue, state.EligibleBufferBytes(slot_time, config_.ue_processing_delay)});
  }
  const auto allocations =
      policy_->OnUplinkSlot(slot_time, slot_index_, available, demand);

  // Transmit in UE-id order (the policy contract), then let UEs that got
  // no PUSCH surface their demand over the control channel (SR path).
  std::uint64_t granted_mask_hint = 0;  // fast path for small populations
  std::vector<std::uint32_t> granted;
  granted.reserve(allocations.size());
  for (const auto& alloc : allocations) {
    auto it = ues_.find(alloc.ue);
    if (it == ues_.end() || alloc.tbs_bytes == 0) continue;
    TransmitNewTb(it->second, alloc, slot_time);
    granted.push_back(alloc.ue);
    if (alloc.ue < 64) granted_mask_hint |= (1ULL << alloc.ue);
  }
  for (auto& [ue, state] : ues_) {
    const bool got_pusch =
        ue < 64 ? (granted_mask_hint & (1ULL << ue)) != 0
                : std::binary_search(granted.begin(), granted.end(), ue);
    if (got_pusch) continue;
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

  // Fill from this UE's RLC buffer, FIFO with segmentation, honouring the
  // L2 processing-delay eligibility — identical to RanUplink.
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

  Transmit(std::move(tb), slot_time);
}

void MultiUeUplink::Transmit(Tb tb, sim::TimePoint slot_time) {
  auto ue_it = ues_.find(tb.ue);
  ATHENA_CHECK(ue_it != ues_.end(), "Transmit: TB for a UE not attached to this cell");
  UeRadioState& ue_state = ue_it->second;

  ++counters_.tb_transmissions;
  static thread_local obs::CachedCounter counter_tb_transmissions{"ran.tb_transmissions"};
  counter_tb_transmissions.Inc();
  if (tb.round > 0) {
    ++counters_.tb_rtx;
    if (tb.used == 0) ++counters_.empty_tb_rtx;
  }
  if (tb.used == 0) ++counters_.empty_tb_transmissions;

  const bool crc_ok = ue_state.channel.SampleCrcOk(tb.round);
  RecordTelemetry(ue_state, tb, slot_time, crc_ok);

  if (crc_ok) {
    OnTbDecoded(tb, slot_time);
    return;
  }

  ++counters_.tb_failed;
  if (tb.round + 1 >= config_.max_harq_rounds) {
    OnChainDropped(tb, slot_time);
    return;
  }
  Tb rtx = std::move(tb);
  ++rtx.round;
  const auto period = config_.ul_slot_period.count();
  const auto target = (slot_time + config_.rtx_delay).us();
  const auto aligned = ((target + period - 1) / period) * period;
  pending_rtx_[aligned].push_back(std::move(rtx));
}

void MultiUeUplink::OnTbDecoded(const Tb& tb, sim::TimePoint slot_time) {
  auto ue_it = ues_.find(tb.ue);
  if (ue_it == ues_.end()) return;  // detached between rtx rounds (handover)
  UeRadioState& ue_state = ue_it->second;

  for (const auto& seg : tb.segments) {
    auto it = ue_state.in_flight.find(seg.packet_id);
    if (it == ue_state.in_flight.end()) continue;  // aborted by a dropped chain
    UeDeliveryState& state = it->second;
    ATHENA_CHECK(state.undelivered >= seg.bytes,
                 "OnTbDecoded: segment larger than the packet's undelivered bytes");
    state.undelivered -= seg.bytes;
    if (state.undelivered == 0) {
      const net::Packet pkt = std::move(state.pkt);
      ue_state.in_flight.erase(it);
      ++ue_state.delivered;
      ++counters_.packets_delivered;
      if (deliver_) deliver_(tb.ue, pkt, slot_time);
    }
  }

  if (tb.has_bsr) policy_->OnBsrDecoded(tb.ue, slot_time, tb.bsr_bytes);
  policy_->OnTbFilled(tb.ue, tb.first_tx_slot, tb.tbs, tb.used);
}

void MultiUeUplink::OnChainDropped(const Tb& tb, sim::TimePoint slot_time) {
  ++counters_.tb_dropped_chains;
  auto ue_it = ues_.find(tb.ue);
  if (ue_it == ues_.end()) return;
  UeRadioState& ue_state = ue_it->second;
  obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kHarqChain, tb.chain_id, tb.first_tx_slot,
                      slot_time,
                      {{"rounds", static_cast<double>(tb.round)}, {"dropped", 1.0}});
  for (const auto& seg : tb.segments) {
    auto it = ue_state.in_flight.find(seg.packet_id);
    if (it == ue_state.in_flight.end()) continue;
    ue_state.in_flight.erase(it);
    ++ue_state.lost;
    ++counters_.packets_lost;
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
  if (obs::trace_enabled()) {
    obs::TraceInstant(obs::Layer::kRan,
                      tb.round == 0 ? obs::names::kTbTx : obs::names::kTbRtx, slot_time,
                      {{"tbs", static_cast<double>(tb.tbs)},
                       {"used", static_cast<double>(tb.used)},
                       {"round", static_cast<double>(tb.round)},
                       {"crc_ok", crc_ok ? 1.0 : 0.0},
                       {"ue", static_cast<double>(tb.ue)}});
  }
}

}  // namespace athena::ran
