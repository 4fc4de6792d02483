// Capture points: the pcap taps of Fig. 2 (sender ①, mobile core ②,
// SFU ③/③*, receiver ④). A capture point is a pass-through observer that
// records (packet, local timestamp) using the host's possibly-offset
// clock. Athena's correlator works *only* from these logs — never from
// simulator ground truth — mirroring the real measurement pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/chunked_log.hpp"
#include "net/clock.hpp"
#include "net/packet.hpp"
#include "obs/trace_names.hpp"
#include "sim/simulator.hpp"

namespace athena::net {

/// One packet as a capture point logged it. The RTP and ICMP headers share
/// one tagged slot because no packet carries both, which keeps the record
/// at 72 B (logs hold one record per packet per capture point).
struct CaptureRecord {
  PacketId packet_id = 0;
  sim::TimePoint local_ts;   ///< timestamp by the capturing host's clock
  sim::TimePoint true_ts;    ///< ground truth (tests only; Athena must not use it)
  std::uint32_t size_bytes = 0;
  FlowId flow = 0;
  PacketKind kind = PacketKind::kGeneric;

  /// The packet's RTP header, or null when it carried none.
  [[nodiscard]] const RtpMeta* rtp() const {
    return header_ == Header::kRtp ? &payload_.rtp : nullptr;
  }
  /// The packet's ICMP echo header, or null when it carried none.
  [[nodiscard]] const IcmpMeta* icmp() const {
    return header_ == Header::kIcmp ? &payload_.icmp : nullptr;
  }
  /// Each setter replaces whichever header the record held.
  void set_rtp(const RtpMeta& meta) {
    payload_.rtp = meta;
    header_ = Header::kRtp;
  }
  void set_icmp(const IcmpMeta& meta) {
    payload_.icmp = meta;
    header_ = Header::kIcmp;
  }
  void clear_header() { header_ = Header::kNone; }

 private:
  enum class Header : std::uint8_t { kNone, kRtp, kIcmp };
  union Payload {
    Payload() : rtp{} {}
    RtpMeta rtp;
    IcmpMeta icmp;
  };
  Header header_ = Header::kNone;
  Payload payload_;
};

static_assert(sizeof(CaptureRecord) <= 80, "capture records stay compact");

/// A capture point's log: 2.3 KiB blocks of 32 records.
using CaptureLog = ChunkedLog<CaptureRecord>;

class CapturePoint {
 public:
  CapturePoint(sim::Simulator& sim, std::string name, HostClock clock = {})
      : sim_(sim), name_(std::move(name)), trace_name_(name_), clock_(clock) {}

  /// Records the packet and forwards it to the downstream handler (if any).
  void OnPacket(const Packet& p);

  /// The handler packets continue to after being logged.
  void set_sink(PacketHandler sink) { sink_ = std::move(sink); }

  /// A handler bound to this capture point, usable as an upstream's sink.
  [[nodiscard]] PacketHandler AsHandler() {
    return [this](const Packet& p) { OnPacket(p); };
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const HostClock& clock() const { return clock_; }
  [[nodiscard]] const CaptureLog& log() const { return log_; }
  [[nodiscard]] std::size_t count() const { return log_.size(); }

  void Clear() { log_.Clear(); }

 private:
  sim::Simulator& sim_;
  std::string name_;
  obs::TraceName trace_name_;  ///< `name_` interned once, not per packet
  HostClock clock_;
  PacketHandler sink_;
  CaptureLog log_;
};

}  // namespace athena::net
