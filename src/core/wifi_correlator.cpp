#include "core/wifi_correlator.hpp"

#include <algorithm>
#include <unordered_map>

namespace athena::core {

const char* ToString(WifiCause cause) {
  switch (cause) {
    case WifiCause::kNone: return "none";
    case WifiCause::kHolQueueing: return "hol-queueing";
    case WifiCause::kContention: return "contention";
    case WifiCause::kCollisionRetry: return "collision-retry";
  }
  return "?";
}

const WifiPacketRecord* WifiDataset::Find(net::PacketId id) const {
  for (const auto& p : packets) {
    if (p.packet_id == id) return &p;
  }
  return nullptr;
}

WifiDataset WifiCorrelator::Correlate(const WifiCorrelatorInput& input) {
  WifiDataset out;

  // Group airtime attempts by MAC identity (Wi-Fi carries whole packets).
  std::unordered_map<net::PacketId, std::vector<const net::WifiAirtimeRecord*>> attempts;
  for (const auto& rec : input.telemetry) {
    attempts[rec.packet_id].push_back(&rec);
  }

  std::unordered_map<net::PacketId, sim::TimePoint> egress_ts;
  egress_ts.reserve(input.egress.size());
  for (const auto& rec : input.egress) egress_ts.emplace(rec.packet_id, rec.local_ts);

  std::uint64_t matched_attempts = 0;
  for (const auto& rec : input.sender) {
    WifiPacketRecord p;
    p.packet_id = rec.packet_id;
    p.kind = rec.kind;
    if (const net::RtpMeta* rtp = rec.rtp()) {
      p.frame_id = rtp->frame_id;
      p.layer = rtp->layer;
    }
    p.sent_at = rec.local_ts + input.sender_offset;

    if (const auto it = egress_ts.find(rec.packet_id); it != egress_ts.end()) {
      p.delivered = true;
      p.delivered_at = it->second;
      p.total_delay = p.delivered_at - p.sent_at;
    }

    if (const auto it = attempts.find(rec.packet_id); it != attempts.end()) {
      auto list = it->second;
      std::sort(list.begin(), list.end(),
                [](const net::WifiAirtimeRecord* a, const net::WifiAirtimeRecord* b) {
                  return a->contend_start < b->contend_start;
                });
      matched_attempts += list.size();
      p.attempts = static_cast<std::uint8_t>(list.size());
      p.hol_wait = std::max(list.front()->contend_start - p.sent_at, sim::Duration{0});
      sim::Duration airtime{0};
      for (const auto* a : list) {
        p.contention_wait += a->access_wait;
        airtime += a->access_wait + a->tx_duration;
      }
      if (p.delivered) {
        // Whatever the first attempt's contention + transmission does not
        // explain is retry overhead (backoff penalties + extra attempts).
        const auto first_only =
            list.front()->access_wait + list.front()->tx_duration;
        p.retry_overhead =
            std::max(p.total_delay - p.hol_wait - first_only, sim::Duration{0});
        if (p.attempts == 1) p.retry_overhead = sim::Duration{0};
      }
    }

    // Primary cause: the largest contributor beyond a negligible floor.
    const auto biggest =
        std::max({p.hol_wait, p.contention_wait, p.retry_overhead});
    if (p.attempts > 1 && p.retry_overhead == biggest) {
      p.primary_cause = WifiCause::kCollisionRetry;
    } else if (biggest == p.hol_wait && p.hol_wait > sim::Duration{300}) {
      p.primary_cause = WifiCause::kHolQueueing;
    } else if (biggest == p.contention_wait && p.contention_wait > sim::Duration{300}) {
      p.primary_cause = WifiCause::kContention;
    }
    out.packets.push_back(std::move(p));
  }

  out.unmatched_telemetry = input.telemetry.size() - matched_attempts;
  return out;
}

}  // namespace athena::core
