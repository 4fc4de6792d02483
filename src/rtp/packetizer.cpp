#include "rtp/packetizer.hpp"

#include <algorithm>
#include <cassert>

namespace athena::rtp {

std::vector<net::Packet> Packetizer::Packetize(const MediaUnit& unit, sim::TimePoint now) {
  assert(unit.payload_bytes > 0 && "packetizing an empty media unit");
  const std::uint32_t mtu = config_.mtu_payload_bytes;
  const std::uint32_t count = (unit.payload_bytes + mtu - 1) / mtu;

  std::vector<net::Packet> out;
  out.reserve(count);
  std::uint32_t remaining = unit.payload_bytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t chunk = std::min(remaining, mtu);
    remaining -= chunk;

    net::Packet p;
    p.id = ids_.Next();
    p.flow = config_.flow;
    p.kind = unit.is_audio ? net::PacketKind::kRtpAudio : net::PacketKind::kRtpVideo;
    p.size_bytes = chunk + config_.header_overhead_bytes;
    p.created_at = now;
    p.rtp = net::RtpMeta{
        .frame_id = unit.frame_id,
        .ssrc = config_.ssrc,
        .media_ts = unit.media_ts,
        .packets_in_frame = count,
        .packet_index_in_frame = i,
        .seq = next_seq_++,
        .transport_seq = transport_seq_.Next(),
        .marker = (i + 1 == count),
        .layer = unit.layer,
    };
    out.push_back(std::move(p));
  }
  assert(remaining == 0);
  return out;
}

}  // namespace athena::rtp
