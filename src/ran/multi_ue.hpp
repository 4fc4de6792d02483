// The 5G uplink scheduler: one cell, N contending UEs. This is the one
// uplink slot loop in the simulator, the system under measurement in §§2–3:
// every delay artifact the paper explains (2.5 ms delay-spread
// quantization, ~10 ms BSR scheduling delay, 10 ms HARQ inflation,
// over-granting, empty-TB retransmissions) is an emergent behaviour of
// this component.
//
// One slot clock, one per-slot byte budget (cell capacity minus competing
// cross traffic), per-UE RLC buffers / HARQ chains / channel models, and
// a MultiUeGrantPolicy that divides the budget. World cells run it with a
// contending population; `RanUplink` (uplink.hpp) is the one-UE case the
// paper measures, attaching a single UE and adapting the single-UE
// GrantPolicy seam onto this one.
//
// UEs are mobile: a UE's radio-side state (`UeRadioState` — channel model,
// RLC queue, undelivered-packet ledger, telemetry stream) can be detached
// from one cell and attached to another mid-session (the world engine's
// handover choreography). Detach drops the UE's pending HARQ
// retransmissions — RLC-UM style handover loss — and hands everything
// else over intact, so packet conservation is exact:
//
//   offered == delivered + lost + |in_flight|      (per UE, at any time)
//
// The core does not deliver to the mobile core itself: decode completions
// surface through a callback with the decode timestamp, and the caller
// applies the gNB→core latency (RanUplink schedules it; in the sharded
// world it is a cross-shard mailbox hop). Ground-truth TB records are
// kept only when the caller asks for them (sessions do, world cells do
// not).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "ran/cross_traffic.hpp"
#include "ran/grant_policy.hpp"
#include "ran/types.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {

/// One queued datagram's remaining bytes in a UE's RLC buffer. The
/// packet itself lives once, in the UE's `in_flight` ledger.
struct UeQueuedPacket {
  net::PacketId id = 0;
  std::uint32_t remaining = 0;
  sim::TimePoint enqueued_at;
};

/// A packet that entered the modem and has not yet fully delivered.
struct UeDeliveryState {
  net::Packet pkt;
  std::uint32_t undelivered = 0;
  sim::TimePoint enqueued_at;
};

/// Everything that travels with a UE across cells. Movable value type;
/// the sharded world ships it through a mailbox on handover.
struct UeRadioState {
  ChannelModel channel{ChannelModel::Config{}, sim::Rng{1}};
  /// RLC buffer, FIFO. `enqueued_at` never decreases from front to back:
  /// packets enter at the owning cell's clock, and a handover moves the
  /// queue forward in time only.
  std::deque<UeQueuedPacket> queue;
  /// Running Σ queue[i].remaining, kept by MultiUeUplink on enqueue and
  /// TB fill (the only places that touch `queue`).
  std::uint32_t queued_bytes = 0;
  std::unordered_map<net::PacketId, UeDeliveryState> in_flight;
  /// The UE's control-channel telemetry stream, accumulated across every
  /// cell it visits (slot-time ordered: handover is one-way in time).
  std::vector<TbRecord> telemetry;

  // --- conservation ledger ---
  std::uint64_t offered = 0;    ///< packets handed to SendFromUe
  std::uint64_t delivered = 0;  ///< packets fully decoded (on their way to the core)
  std::uint64_t lost = 0;       ///< HARQ-chain drops + handover-dropped chains

  [[nodiscard]] std::uint32_t TotalBufferBytes() const { return queued_bytes; }
};

class MultiUeUplink {
 public:
  /// Decode completion: `delivered` (the packet and its modem arrival)
  /// fully decoded for `ue` at `decoded_at` (the slot time). The caller
  /// adds the gNB→core transfer latency.
  using DeliverFn = std::function<void(std::uint32_t ue, const UeDeliveryState& delivered,
                                       sim::TimePoint decoded_at)>;

  /// `cell_tag` namespaces TB/chain ids (bits 40+) so the telemetry
  /// streams of different cells never collide in a handed-over UE's
  /// concatenated stream. `policy` null = SharedBsrGrantPolicy baseline.
  /// `cross_traffic` is served before any attached UE each slot.
  /// `record_truth` keeps a TbTruth per new TB (see types.hpp).
  MultiUeUplink(sim::Simulator& sim, RanConfig config, std::uint32_t cell_tag,
                std::unique_ptr<MultiUeGrantPolicy> policy = nullptr,
                CrossTraffic cross_traffic = CrossTraffic::Idle(sim::Rng{0}),
                bool record_truth = false);

  /// Starts the slot clock (idempotent). Slots stay on the epoch-aligned
  /// UL grid, so every cell in a world ticks the same instants.
  void Start();
  /// Cancels the slot clock. After Stop() no further TBs are transmitted
  /// or decoded; buffered packets stay queued. Safe to call repeatedly.
  void Stop();

  /// Hands a UE's radio state to this cell. The UE takes part in grant
  /// contention from the next slot.
  void AttachUe(std::uint32_t ue, UeRadioState state);

  /// Removes the UE, returning its radio state for transfer. Pending HARQ
  /// retransmissions are dropped (their packets count as `lost` — the
  /// RLC-UM handover loss); queued and in-flight packets travel intact.
  [[nodiscard]] UeRadioState DetachUe(std::uint32_t ue);

  [[nodiscard]] bool HasUe(std::uint32_t ue) const { return ues_.count(ue) != 0; }
  [[nodiscard]] std::vector<std::uint32_t> AttachedUes() const;
  [[nodiscard]] const UeRadioState* FindUe(std::uint32_t ue) const;

  /// A datagram from `ue`'s IP stack enters its RLC buffer.
  void SendFromUe(std::uint32_t ue, const net::Packet& p);

  void set_deliver_sink(DeliverFn sink) { deliver_ = std::move(sink); }

  /// Streams each telemetry record as it is produced (for online
  /// consumers such as the §5.3 PHY-informed controller).
  void set_telemetry_listener(std::function<void(const TbRecord&)> listener) {
    telemetry_listener_ = std::move(listener);
  }

  /// Cell-wide outage window (world-scale chaos): while now ∈
  /// [start, end) nothing transmits and HARQ retransmissions slide,
  /// exactly like a slot in which every attached UE is in handover.
  void SetOutage(sim::TimePoint start, sim::TimePoint end) {
    outage_start_ = start;
    outage_end_ = end;
  }

  /// Ground truth (empty unless constructed with `record_truth`).
  [[nodiscard]] const std::vector<TbTruth>& truth() const { return truth_; }

  [[nodiscard]] const RanCounters& counters() const { return counters_; }
  [[nodiscard]] const RanConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t slots_run() const { return slot_index_; }
  [[nodiscard]] MultiUeGrantPolicy& policy() { return *policy_; }

 private:
  struct Segment {
    net::PacketId packet_id = 0;
    std::uint32_t bytes = 0;
    bool last = false;
  };

  struct Tb {
    std::uint32_t ue = 0;
    TbId id = 0;
    TbId chain_id = 0;
    GrantType grant = GrantType::kProactive;
    std::uint32_t tbs = 0;
    std::uint32_t used = 0;
    std::uint8_t round = 0;
    sim::TimePoint first_tx_slot;
    std::vector<Segment> segments;
    bool has_bsr = false;
    std::uint32_t bsr_bytes = 0;
  };

  void OnUplinkSlot();
  /// True when no attached UE has a serving radio this slot: a cell
  /// outage, or every attached UE in handover.
  [[nodiscard]] bool SlotSkipped(sim::TimePoint slot_time) const;
  /// Builds and transmits a new-data TB of the allocated size.
  void TransmitNewTb(UeRadioState& ue_state, const MultiUeGrantPolicy::Allocation& alloc,
                     sim::TimePoint slot_time);
  /// Transmits (or retransmits) `tb` and samples its decode outcome.
  void Transmit(UeRadioState& ue_state, Tb tb, sim::TimePoint slot_time);
  void OnTbDecoded(UeRadioState& ue_state, const Tb& tb, sim::TimePoint slot_time);
  /// Abandons a HARQ chain: its undelivered packets are lost.
  void DropChain(UeRadioState& ue_state, const Tb& tb, sim::TimePoint now);
  void RecordTelemetry(UeRadioState& ue_state, const Tb& tb, sim::TimePoint slot_time,
                       bool crc_ok);
  [[nodiscard]] TbTruth* TruthFor(TbId chain_id);

  sim::Simulator& sim_;
  RanConfig config_;
  std::unique_ptr<MultiUeGrantPolicy> policy_;
  CrossTraffic cross_traffic_;
  DeliverFn deliver_;
  std::function<void(const TbRecord&)> telemetry_listener_;

  /// Ordered by UE id: all per-slot iteration is deterministic.
  std::map<std::uint32_t, UeRadioState> ues_;
  /// Retransmissions waiting for their slot, keyed by absolute slot time
  /// (µs); within a slot, insertion order.
  std::map<std::int64_t, std::vector<Tb>> pending_rtx_;
  /// Per-slot scratch, kept to spare the slot loop two allocations.
  std::vector<MultiUeGrantPolicy::UeDemand> demand_;
  std::vector<MultiUeGrantPolicy::Allocation> allocations_;

  bool record_truth_ = false;
  std::vector<TbTruth> truth_;
  std::unordered_map<TbId, std::size_t> truth_index_;  // chain_id → truth_ slot

  RanCounters counters_;
  TbId next_tb_id_ = 1;
  std::uint64_t slot_index_ = 0;
  sim::TimePoint outage_start_;
  sim::TimePoint outage_end_;
  bool started_ = false;
  sim::EventHandle slot_timer_;
};

}  // namespace athena::ran
