// Receiver-side loss detection and NACK generation (RFC 4585 generic
// NACK, WebRTC-style): RTP sequence gaps per SSRC are reported back to the
// sender for retransmission, with bounded retries. In this system losses
// come from HARQ chain drops in the RAN (§3.2) — NACK recovery is how the
// application layer papers over them, at the cost of an extra RTT that
// Athena's cross-layer records make visible.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace athena::rtp {

class NackGenerator {
 public:
  struct Config {
    /// How long to sit on a fresh gap before NACKing (reordering grace).
    sim::Duration initial_hold{std::chrono::milliseconds{15}};
    sim::Duration retry_interval{std::chrono::milliseconds{80}};
    int max_retries = 4;
    sim::Duration check_interval{std::chrono::milliseconds{10}};
    std::uint32_t nack_packet_bytes = 72;
    net::FlowId flow = 9200;
  };

  NackGenerator(sim::Simulator& sim, Config config, net::PacketIdGenerator& ids);

  void Start();
  void Stop();

  /// Feed every media packet arriving at the receiver.
  void OnMediaPacket(const net::Packet& p);

  /// NACK packets leave through this handler (the feedback return path).
  void set_feedback_path(net::PacketHandler h) { feedback_path_ = std::move(h); }

  [[nodiscard]] std::uint64_t gaps_detected() const { return gaps_detected_; }
  [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }
  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
  [[nodiscard]] std::uint64_t abandoned() const { return abandoned_; }

 private:
  struct Missing {
    sim::TimePoint first_seen;
    sim::TimePoint next_action;
    int retries = 0;
  };
  struct Stream {
    bool started = false;
    std::uint16_t highest_seq = 0;
    std::map<std::uint16_t, Missing> missing;
  };

  void CheckAndSend();

  sim::Simulator& sim_;
  Config config_;
  net::PacketIdGenerator& ids_;
  net::PacketHandler feedback_path_;
  sim::PeriodicTimer timer_;
  std::map<std::uint32_t, Stream> streams_;  // by SSRC
  std::uint64_t gaps_detected_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t abandoned_ = 0;
};

/// Sender-side retransmission cache: the last `capacity` RTP packets
/// inserted, across every SSRC, findable by (SSRC, seq). A FIFO ring of
/// compact items holding only what a retransmission reuses (flow, kind,
/// size, RTP header), grown lazily up to `capacity`; once full, each
/// insert overwrites the oldest item. `capacity` is at most 65536, so a
/// window never holds one SSRC's sequence number twice.
class RtxCache {
 public:
  static constexpr std::size_t kMaxCapacity = 65536;

  explicit RtxCache(std::size_t capacity = 2048);

  void Insert(const net::Packet& p);

  /// The cached packet for (ssrc, seq) rebuilt from its item, or nullopt
  /// if it was evicted (or never sent). `id` and `created_at` are left
  /// zero: a retransmission is a fresh transmission, the sender stamps
  /// both (and a new transport-wide sequence number).
  [[nodiscard]] std::optional<net::Packet> Find(std::uint32_t ssrc, std::uint16_t seq) const;

  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  struct Item {
    net::FlowId flow = 0;
    net::PacketKind kind = net::PacketKind::kGeneric;
    std::uint32_t size_bytes = 0;
    net::RtpMeta rtp;
  };

  std::size_t capacity_;
  std::vector<Item> items_;
  std::size_t next_evict_ = 0;  // oldest item once the ring is full
};

}  // namespace athena::rtp
