#include "core/correlator.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace athena::core {

const char* ToString(RootCause cause) {
  switch (cause) {
    case RootCause::kNone: return "none";
    case RootCause::kSlotAlignment: return "slot-alignment";
    case RootCause::kBsrWait: return "bsr-wait";
    case RootCause::kRetransmission: return "retransmission";
    case RootCause::kCapacityContention: return "capacity-contention";
  }
  return "?";
}

const CrossLayerRecord* CrossLayerDataset::FindPacket(net::PacketId id) const {
  for (const auto& p : packets) {
    if (p.packet_id == id) return &p;
  }
  return nullptr;
}

const FrameRecord* CrossLayerDataset::FindFrame(std::uint64_t frame_id) const {
  for (const auto& f : frames) {
    if (f.frame_id == frame_id) return &f;
  }
  return nullptr;
}

/// A HARQ chain reconstructed from telemetry: one unit of MAC-layer data,
/// transmitted once or more.
struct Correlator::TbChain {
  ran::TbId chain_id = 0;
  sim::TimePoint first_tx;
  sim::TimePoint decoded_at;      ///< first crc_ok transmission
  bool decoded = false;
  std::uint8_t rounds = 0;        ///< extra transmissions beyond the first
  std::uint32_t used_bytes = 0;
  ran::GrantType grant = ran::GrantType::kProactive;
};

namespace {

struct PendingPacket {
  const net::CaptureRecord* record = nullptr;
  sim::TimePoint sent_common;
  std::uint32_t remaining = 0;
  // Filled during the drain:
  std::vector<const Correlator::TbChain*> chains;
};

RootCause Classify(const CrossLayerRecord& rec, const ran::RanConfig& cell) {
  const auto slot = cell.ul_slot_period;
  const auto rtx = rec.rtx_inflation;
  const auto wait = rec.sched_wait;
  const auto spread = rec.transmission_spread;

  if (rtx >= cell.rtx_delay && rtx >= wait && rtx >= spread) {
    return RootCause::kRetransmission;
  }
  const auto dominant = std::max(wait, spread);
  if (dominant > cell.bsr_scheduling_delay + slot) return RootCause::kCapacityContention;
  if (spread > sim::Duration{slot.count() / 2} || wait > slot) return RootCause::kBsrWait;
  if (wait > sim::Duration{200}) return RootCause::kSlotAlignment;
  return RootCause::kNone;
}

void FinalizeState(StreamHealth& h) {
  if (h.records == 0) {
    h.state = StreamHealth::State::kMissing;
  } else if (h.duplicates_dropped + h.out_of_order + h.gaps > 0) {
    h.state = StreamHealth::State::kDegraded;
  } else {
    h.state = StreamHealth::State::kHealthy;
  }
}

/// Joins a capture log into a packet_id → timestamp map, tolerating
/// duplicates (first/earliest record wins) and reordering (counted; the
/// map is order-free anyway).
std::unordered_map<net::PacketId, sim::TimePoint> JoinById(
    const std::vector<net::CaptureRecord>& records, StreamHealth& health) {
  std::unordered_map<net::PacketId, sim::TimePoint> by_id;
  by_id.reserve(records.size());
  sim::TimePoint prev;
  bool have_prev = false;
  for (const auto& rec : records) {
    if (have_prev && rec.local_ts < prev) ++health.out_of_order;
    prev = rec.local_ts;
    have_prev = true;
    auto [it, inserted] = by_id.emplace(rec.packet_id, rec.local_ts);
    if (!inserted) {
      ++health.duplicates_dropped;
      it->second = std::min(it->second, rec.local_ts);
    }
  }
  health.records = by_id.size();
  return by_id;
}

}  // namespace

CrossLayerDataset Correlator::Correlate(const CorrelatorInput& input) {
  CrossLayerDataset out;
  CorrelationHealth& health = out.health;

  // ---- Step 0: clean the feeds. Real collectors re-deliver, reorder and
  // lose records; everything below works on deduplicated, time-sorted
  // views and every repair is tallied in `health` (the degradation
  // contract: tolerate, but never silently). ----

  // Sender capture: dedupe by packet id (first record wins — a capture
  // point logs each packet once; re-deliveries are collector artifacts).
  std::vector<PendingPacket> packets;
  packets.reserve(input.sender.size());
  {
    std::unordered_set<net::PacketId> seen;
    seen.reserve(input.sender.size());
    sim::TimePoint prev;
    bool have_prev = false;
    for (const auto& rec : input.sender) {
      if (have_prev && rec.local_ts < prev) ++health.sender.out_of_order;
      prev = rec.local_ts;
      have_prev = true;
      if (!seen.insert(rec.packet_id).second) {
        ++health.sender.duplicates_dropped;
        continue;
      }
      packets.push_back(PendingPacket{
          .record = &rec,
          .sent_common = rec.local_ts + input.sender_offset,
          .remaining = rec.size_bytes,
          .chains = {},
      });
    }
    health.sender.records = packets.size();
  }
  // ---- Step 1: everything onto the common (core) clock; reordered
  // capture logs are repaired by this sort. ----
  // Ties broken by packet id: ids are assigned in send order, so equal
  // timestamps (bursts within one clock tick) still drain in true FIFO
  // order even when the capture log arrived permuted.
  std::stable_sort(packets.begin(), packets.end(),
                   [](const PendingPacket& a, const PendingPacket& b) {
                     if (a.sent_common != b.sent_common) return a.sent_common < b.sent_common;
                     return a.record->packet_id < b.record->packet_id;
                   });

  // Telemetry: count order inversions, then sort and dedupe by tb_id (a
  // tb_id names one transmission; seeing it twice is a feed duplicate,
  // and the same bytes must not be drained twice).
  std::vector<const ran::TbRecord*> telemetry;
  telemetry.reserve(input.telemetry.size());
  {
    sim::TimePoint prev;
    bool have_prev = false;
    for (const auto& tb : input.telemetry) {
      if (have_prev && tb.slot_time < prev) ++health.telemetry.out_of_order;
      prev = tb.slot_time;
      have_prev = true;
      telemetry.push_back(&tb);
    }
    std::stable_sort(telemetry.begin(), telemetry.end(),
                     [](const ran::TbRecord* a, const ran::TbRecord* b) {
                       if (a->slot_time != b->slot_time) return a->slot_time < b->slot_time;
                       return a->tb_id < b->tb_id;
                     });
    std::unordered_set<ran::TbId> seen_tx;
    seen_tx.reserve(telemetry.size());
    std::vector<const ran::TbRecord*> unique;
    unique.reserve(telemetry.size());
    for (const ran::TbRecord* tb : telemetry) {
      if (!seen_tx.insert(tb->tb_id).second) {
        ++health.telemetry.duplicates_dropped;
        continue;
      }
      unique.push_back(tb);
    }
    telemetry.swap(unique);
    health.telemetry.records = telemetry.size();
  }

  // ---- Step 2a: rebuild HARQ chains from the cleaned telemetry. ----
  std::map<ran::TbId, TbChain> chains_by_id;
  for (const ran::TbRecord* tb_ptr : telemetry) {
    const ran::TbRecord& tb = *tb_ptr;
    auto [it, inserted] = chains_by_id.try_emplace(tb.chain_id);
    TbChain& chain = it->second;
    if (inserted) {
      chain.chain_id = tb.chain_id;
      chain.first_tx = tb.slot_time;
      chain.used_bytes = tb.used_bytes;
      chain.grant = tb.grant;
    }
    chain.first_tx = std::min(chain.first_tx, tb.slot_time);
    chain.rounds = std::max(chain.rounds, tb.harq_round);
    if (tb.crc_ok && (!chain.decoded || tb.slot_time < chain.decoded_at)) {
      chain.decoded = true;
      chain.decoded_at = tb.slot_time;
    }
  }
  std::vector<TbChain*> chains;
  chains.reserve(chains_by_id.size());
  for (auto& [id, chain] : chains_by_id) chains.push_back(&chain);
  std::stable_sort(chains.begin(), chains.end(), [](const TbChain* a, const TbChain* b) {
    return a->first_tx < b->first_tx;
  });

  // ---- Step 2b: FIFO byte-conservation drain. The UE's RLC queue is
  // FIFO, so the n-th TB byte carries the n-th queued packet byte; no
  // eligibility heuristics needed, which also makes the matching immune
  // to (bounded) clock-offset estimation error. ----
  std::size_t pkt_idx = 0;
  for (TbChain* chain : chains) {
    std::uint32_t avail = chain->used_bytes;
    while (avail > 0 && pkt_idx < packets.size()) {
      PendingPacket& pkt = packets[pkt_idx];
      if (pkt.remaining == 0) {
        ++pkt_idx;
        continue;
      }
      const std::uint32_t take = std::min(avail, pkt.remaining);
      pkt.remaining -= take;
      avail -= take;
      if (pkt.chains.empty() || pkt.chains.back() != chain) pkt.chains.push_back(chain);
      if (pkt.remaining == 0) ++pkt_idx;
    }
    out.unmatched_tb_bytes += avail;
  }
  for (const auto& pkt : packets) out.unmatched_packet_bytes += pkt.remaining;

  // ---- L3 joins: core and receiver captures by packet id (duplicate-
  // and reorder-tolerant). ----
  std::unordered_map<net::PacketId, sim::TimePoint> core_ts = JoinById(input.core, health.core);
  std::unordered_map<net::PacketId, sim::TimePoint> recv_ts =
      JoinById(input.receiver, health.receiver);

  // ---- Telemetry gap scan: silent holes in the TB stream are only
  // *evidence* of feed loss when traffic demonstrably crossed the RAN
  // inside them (core arrivals imply serving TBs ~a processing delay
  // earlier). Idle spells — no TBs because nothing was sent — are not
  // gaps. Each confirmed gap window later discounts the match confidence
  // of packets correlated across it. ----
  std::vector<std::pair<sim::TimePoint, sim::TimePoint>> gap_windows;
  sim::TimePoint last_tb_slot;
  if (!telemetry.empty()) {
    last_tb_slot = telemetry.back()->slot_time;
    std::vector<sim::TimePoint> core_arrivals;
    core_arrivals.reserve(core_ts.size());
    for (const auto& [id, ts] : core_ts) core_arrivals.push_back(ts);
    std::sort(core_arrivals.begin(), core_arrivals.end());

    const sim::Duration slot = input.cell.ul_slot_period;
    // Median TB spacing calibrates "silent" against the observed cadence.
    sim::Duration median_spacing = slot;
    if (telemetry.size() >= 8) {
      std::vector<std::int64_t> deltas;
      deltas.reserve(telemetry.size() - 1);
      for (std::size_t i = 1; i < telemetry.size(); ++i) {
        deltas.push_back((telemetry[i]->slot_time - telemetry[i - 1]->slot_time).count());
      }
      auto mid = deltas.begin() + static_cast<std::ptrdiff_t>(deltas.size() / 2);
      std::nth_element(deltas.begin(), mid, deltas.end());
      median_spacing = std::max(median_spacing, sim::Duration{*mid});
    }
    const sim::Duration threshold =
        std::max(sim::Duration{4 * median_spacing.count()}, sim::Duration{4 * slot.count()});
    // A TB at t surfaces at the core around t + margin.
    const sim::Duration margin =
        input.cell.ue_processing_delay + input.cell.gnb_to_core_delay + slot;

    auto arrivals_inside = [&](sim::TimePoint lo, sim::TimePoint hi) {
      const auto it = std::lower_bound(core_arrivals.begin(), core_arrivals.end(), lo);
      return it != core_arrivals.end() && *it < hi;
    };
    for (std::size_t i = 1; i < telemetry.size(); ++i) {
      const sim::TimePoint a = telemetry[i - 1]->slot_time;
      const sim::TimePoint b = telemetry[i]->slot_time;
      if (b - a <= threshold) continue;
      if (!arrivals_inside(a + margin + slot, b + margin - slot)) continue;
      ++health.telemetry.gaps;
      health.telemetry.longest_gap = std::max(health.telemetry.longest_gap, b - a);
      gap_windows.emplace_back(a, b);
    }
    // Tail truncation: the feed went dark before the traffic did.
    if (!core_arrivals.empty() && core_arrivals.back() - margin > last_tb_slot + threshold) {
      ++health.telemetry.gaps;
      const sim::Duration tail = (core_arrivals.back() - margin) - last_tb_slot;
      health.telemetry.longest_gap = std::max(health.telemetry.longest_gap, tail);
      gap_windows.emplace_back(last_tb_slot, core_arrivals.back());
    }
  }
  auto sent_in_gap = [&](sim::TimePoint sent) {
    for (const auto& [a, b] : gap_windows) {
      if (sent >= a - input.cell.ul_slot_period && sent < b) return true;
    }
    return false;
  };

  // ---- Step 3: emit per-packet records with delay decomposition. ----
  // A packet sent this long before the last observed TB *should* have
  // been served while the telemetry feed was still alive; zero coverage
  // there means the feed lost its TBs (vs. the end-of-run in-flight tail,
  // which legitimately has none).
  const sim::Duration serve_deadline =
      input.cell.bsr_scheduling_delay + sim::Duration{4 * input.cell.ul_slot_period.count()};
  double confidence_sum = 0.0;
  out.packets.reserve(packets.size());
  for (const auto& pkt : packets) {
    const net::CaptureRecord& rec = *pkt.record;
    CrossLayerRecord r;
    r.packet_id = rec.packet_id;
    r.kind = rec.kind;
    r.size_bytes = rec.size_bytes;
    if (const net::RtpMeta* rtp = rec.rtp()) {
      r.frame_id = rtp->frame_id;
      r.layer = rtp->layer;
    }
    r.sent_at = pkt.sent_common;

    if (!pkt.chains.empty()) {
      sim::TimePoint delivered = pkt.chains.front()->first_tx;
      sim::TimePoint last_first_tx = pkt.chains.front()->first_tx;
      for (const TbChain* chain : pkt.chains) {
        r.tb_chains.push_back(chain->chain_id);
        r.max_harq_rounds = std::max(r.max_harq_rounds, chain->rounds);
        last_first_tx = std::max(last_first_tx, chain->first_tx);
        if (chain->decoded) delivered = std::max(delivered, chain->decoded_at);
      }
      const TbChain* first = pkt.chains.front();
      const TbChain* last = pkt.chains.back();
      r.last_grant = last->grant;
      r.sched_wait = std::max(first->first_tx - pkt.sent_common, sim::Duration{0});
      r.transmission_spread = last_first_tx - first->first_tx;
      r.rtx_inflation = std::max(delivered - last_first_tx, sim::Duration{0});
    }

    if (const auto it = core_ts.find(rec.packet_id); it != core_ts.end()) {
      r.reached_core = true;
      r.core_at = it->second;
      r.uplink_owd = r.core_at - r.sent_at;
    }
    if (const auto it = recv_ts.find(rec.packet_id); it != recv_ts.end()) {
      r.reached_receiver = true;
      r.receiver_at = it->second + input.receiver_offset;
      if (r.reached_core) r.wan_owd = r.receiver_at - r.core_at;
    }

    // Degradation contract: per-record confidence = TB byte coverage,
    // discounted for packets correlated across a detected telemetry gap
    // (the FIFO drain had to bridge the hole, so their chain attribution
    // is a guess).
    const std::uint32_t covered =
        rec.size_bytes > pkt.remaining ? rec.size_bytes - pkt.remaining : 0;
    r.match_confidence =
        rec.size_bytes > 0 ? static_cast<double>(covered) / rec.size_bytes : 1.0;
    if (!gap_windows.empty() && sent_in_gap(pkt.sent_common)) {
      r.match_confidence = std::min(r.match_confidence, 0.25);
    }
    confidence_sum += r.match_confidence;
    if (!telemetry.empty() && covered == 0 &&
        pkt.sent_common + serve_deadline <= last_tb_slot) {
      ++health.uncovered_packets;
    }

    r.primary_cause = Classify(r, input.cell);
    // The "why was this packet late" track: one span per media packet from
    // UE send to core arrival, annotated with the delay decomposition.
    if (obs::trace_enabled() && r.reached_core &&
        (r.kind == net::PacketKind::kRtpVideo || r.kind == net::PacketKind::kRtpAudio)) {
      obs::TraceAsyncSpan(obs::Layer::kCore, obs::names::kPktUplink, r.packet_id, r.sent_at,
                          r.core_at,
                          {{"wait_ms", sim::ToMs(r.sched_wait)},
                           {"spread_ms", sim::ToMs(r.transmission_spread)},
                           {"harq_ms", sim::ToMs(r.rtx_inflation)},
                           {"cause", static_cast<double>(r.primary_cause)}});
    }
    out.packets.push_back(std::move(r));
  }
  obs::CountInc("core.packets_correlated", out.packets.size());

  // ---- Per-frame aggregation (L7). ----
  struct FrameScratch {
    FrameRecord record;
    std::uint32_t expected = 0;
    std::uint32_t arrived_at_core = 0;
    bool seen_core = false;
  };
  std::map<std::uint64_t, FrameScratch> frames;
  for (const auto& pkt : packets) {
    const net::CaptureRecord& rec = *pkt.record;
    const net::RtpMeta* rtp = rec.rtp();
    if (rtp == nullptr) continue;
    const auto frame_id = rtp->frame_id;
    auto [it, inserted] = frames.try_emplace(frame_id);
    FrameScratch& s = it->second;
    FrameRecord& f = s.record;
    if (inserted) {
      f.frame_id = frame_id;
      f.layer = rtp->layer;
      f.is_audio = rec.kind == net::PacketKind::kRtpAudio;
      f.first_sent = pkt.sent_common;
      f.last_sent = pkt.sent_common;
      s.expected = rtp->packets_in_frame;
    }
    ++f.packets;
    f.first_sent = std::min(f.first_sent, pkt.sent_common);
    f.last_sent = std::max(f.last_sent, pkt.sent_common);
    if (const auto core_it = core_ts.find(rec.packet_id); core_it != core_ts.end()) {
      const sim::TimePoint at = core_it->second;
      ++s.arrived_at_core;
      if (!s.seen_core) {
        s.seen_core = true;
        f.first_core = at;
        f.last_core = at;
      } else {
        f.first_core = std::min(f.first_core, at);
        f.last_core = std::max(f.last_core, at);
      }
    }
  }
  out.frames.reserve(frames.size());
  for (auto& [frame_id, s] : frames) {
    // Complete at the core once every packet of the frame arrived there.
    s.record.complete_at_core = s.expected > 0 && s.arrived_at_core >= s.expected;
    out.frames.push_back(s.record);
  }
  obs::CountInc("core.frames_correlated", out.frames.size());
  obs::SetGauge("core.unmatched_tb_bytes", static_cast<double>(out.unmatched_tb_bytes));
  obs::SetGauge("core.unmatched_packet_bytes",
                static_cast<double>(out.unmatched_packet_bytes));

  // ---- Degradation verdict + gap/repair metrics. Silent wrongness is
  // the one forbidden failure mode: every repair surfaces here. ----
  FinalizeState(health.telemetry);
  FinalizeState(health.sender);
  FinalizeState(health.core);
  FinalizeState(health.receiver);
  health.mean_match_confidence =
      out.packets.empty() ? 1.0 : confidence_sum / static_cast<double>(out.packets.size());
  // Byte conservation: uplink TB payload can only be captured traffic, so
  // surplus beyond a few TBs' worth of tolerance means the telemetry
  // content itself is corrupt (scrambled size fields, foreign records).
  health.phantom_tb_bytes = out.unmatched_tb_bytes;
  health.phantom_capacity = out.unmatched_tb_bytes > 8192;
  obs::SetGauge("core.telemetry_phantom_bytes",
                static_cast<double>(health.phantom_tb_bytes));
  obs::SetGauge("core.telemetry_gaps", static_cast<double>(health.telemetry.gaps));
  obs::SetGauge("core.telemetry_longest_gap_ms", sim::ToMs(health.telemetry.longest_gap));
  obs::SetGauge("core.telemetry_duplicates",
                static_cast<double>(health.telemetry.duplicates_dropped));
  obs::SetGauge("core.telemetry_out_of_order",
                static_cast<double>(health.telemetry.out_of_order));
  obs::SetGauge("core.capture_duplicates",
                static_cast<double>(health.sender.duplicates_dropped +
                                    health.core.duplicates_dropped +
                                    health.receiver.duplicates_dropped));
  obs::SetGauge("core.capture_out_of_order",
                static_cast<double>(health.sender.out_of_order + health.core.out_of_order +
                                    health.receiver.out_of_order));
  obs::SetGauge("core.packets_uncovered", static_cast<double>(health.uncovered_packets));
  obs::SetGauge("core.match_confidence_mean", health.mean_match_confidence);
  obs::SetGauge("core.degraded", health.degraded() ? 1.0 : 0.0);

  return out;
}

}  // namespace athena::core
