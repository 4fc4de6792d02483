// The datagram model shared by every layer of the simulation.
//
// A `Packet` is a value type carrying the header fields the real system
// would put on the wire: IP/UDP sizing, RTP header + extensions (SVC layer
// id, frame id, abs-send-time — the extensions §2 and §5.2 of the paper
// rely on), or ICMP echo bookkeeping. Layering note: the RTP fields live
// here as plain data so that the link/RAN substrates can carry packets
// without depending on the rtp library; rtp/ holds the *logic*
// (packetization, feedback) that manipulates these fields.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace athena::net {

using PacketId = std::uint64_t;
using FlowId = std::uint32_t;

enum class PacketKind : std::uint8_t {
  kRtpVideo,
  kRtpAudio,
  kRtcpFeedback,
  kIcmpEcho,
  kIcmpReply,
  kCrossTraffic,
  kGeneric,
};

[[nodiscard]] const char* ToString(PacketKind kind);

/// SVC temporal layers as Zoom uses them (§2 "How Zoom Adapts"): a base
/// layer at 7 or 14 fps plus enhancement layers; the low-FPS enhancement
/// has its own id when the target is 14 fps.
enum class SvcLayer : std::uint8_t {
  kBase,
  kLowFpsEnhancement,
  kHighFpsEnhancement,
  kNone,  // audio / non-video
};

[[nodiscard]] const char* ToString(SvcLayer layer);

/// RTP header + the header-extension fields Athena reads (carried as
/// structured data instead of serialized bytes).
struct RtpMeta {
  // Widest fields first: 30 B of fields in 32 B.
  std::uint64_t frame_id = 0;      ///< frame / audio-sample identity (QR substitute)
  std::uint32_t ssrc = 0;
  std::uint32_t media_ts = 0;      ///< RTP media timestamp (clock-rate ticks)
  std::uint32_t packets_in_frame = 0;
  std::uint32_t packet_index_in_frame = 0;
  std::uint16_t seq = 0;           ///< per-SSRC RTP sequence number
  std::uint16_t transport_seq = 0; ///< transport-wide sequence number (TWCC)
  bool marker = false;             ///< last packet of a frame
  SvcLayer layer = SvcLayer::kNone;
};

static_assert(sizeof(RtpMeta) == 32);

/// ICMP echo bookkeeping for the core→server probes of Fig. 2/3.
struct IcmpMeta {
  std::uint32_t probe_seq = 0;
  sim::TimePoint echo_sent_at;  ///< set on the echo, copied into the reply
};

/// One receive report inside a transport-wide congestion-control (TWCC)
/// feedback message: "packet with this transport-wide sequence number
/// arrived at this receiver-clock time".
struct TwccArrival {
  std::uint16_t transport_seq = 0;
  sim::TimePoint recv_ts;
  bool ce = false;  ///< packet arrived with the ECN-CE mark
};

/// RTCP transport-wide feedback payload (RFC 8888 / WebRTC TWCC spirit),
/// carried structured instead of serialized. §5.3 of the paper proposes
/// masking RAN-induced delay exactly by rewriting these timestamps.
struct FeedbackMeta {
  std::uint32_t feedback_seq = 0;
  std::vector<TwccArrival> arrivals;
};

/// RTCP NACK (RFC 4585 generic NACK): the receiver asks the sender to
/// retransmit specific RTP sequence numbers of one SSRC.
struct NackMeta {
  std::uint32_t ssrc = 0;
  std::vector<std::uint16_t> seqs;
};

struct Packet {
  PacketId id = 0;
  FlowId flow = 0;
  PacketKind kind = PacketKind::kGeneric;
  std::uint32_t size_bytes = 0;       ///< on-the-wire size (IP + UDP + payload)
  sim::TimePoint created_at;          ///< true simulation time of creation
  /// ECN Congestion Experienced mark (set by an L4S-style marker in the
  /// modem when the packet waited too long for a grant — §5.3 / ABC).
  bool ecn_ce = false;
  std::optional<RtpMeta> rtp;
  std::optional<IcmpMeta> icmp;
  std::optional<FeedbackMeta> feedback;
  std::optional<NackMeta> nack;

  [[nodiscard]] bool is_media() const {
    return kind == PacketKind::kRtpVideo || kind == PacketKind::kRtpAudio;
  }
  [[nodiscard]] bool is_video() const { return kind == PacketKind::kRtpVideo; }
  [[nodiscard]] bool is_audio() const { return kind == PacketKind::kRtpAudio; }
};

/// Sinks are plain callables: a component delivers a packet by invoking the
/// downstream handler. Handlers run at the simulated delivery instant.
using PacketHandler = std::function<void(const Packet&)>;

/// Process-wide monotonically increasing packet id source. Per-simulation
/// determinism does not require resetting it, but tests may.
class PacketIdGenerator {
 public:
  PacketId Next() { return ++last_; }
  void Reset() { last_ = 0; }

 private:
  PacketId last_ = 0;
};

/// Typical wire overhead: IPv4 (20) + UDP (8) + RTP (12) + extensions (8).
inline constexpr std::uint32_t kRtpHeaderOverheadBytes = 48;
/// Conservative RTP payload MTU used by VCAs (media packets ~1.2 kB).
inline constexpr std::uint32_t kRtpPayloadMtuBytes = 1148;

}  // namespace athena::net
