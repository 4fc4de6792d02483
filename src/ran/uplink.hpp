// The paper's measured 5G uplink: one UE on the uplink scheduler
// (multi_ue.hpp) with a UE-side RLC buffer, slot-clocked grants, TB
// filling with segmentation, HARQ retransmissions and delivery to the
// mobile core. Every §3 delay artifact comes out of that one scheduler;
// this class attaches the single measured UE to it, offers the UE's
// single-UE GrantPolicy (the §5.2 policies, TunableGrantPolicy) the whole
// slot budget left after cross traffic, moves decoded packets to the
// core after the gNB→core transfer delay, and turns ground-truth
// recording on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/capacity_trace.hpp"
#include "net/packet.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "ran/cross_traffic.hpp"
#include "ran/grant_policy.hpp"
#include "ran/multi_ue.hpp"
#include "ran/types.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {

class RanUplink {
 public:
  /// `policy` may be null, in which case the paper-faithful BsrGrantPolicy
  /// is used.
  RanUplink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
            CrossTraffic cross_traffic, std::unique_ptr<GrantPolicy> policy = nullptr);

  /// Starts the slot clock. Must be called before traffic is offered.
  void Start() { cell_.Start(); }

  /// Cancels the slot clock. After Stop() no further TBs are transmitted
  /// or delivered; buffered packets stay queued. Safe to call repeatedly.
  void Stop() { cell_.Stop(); }

  /// The UE's IP stack hands a datagram to the modem (enters the RLC
  /// transmission buffer).
  void SendFromUe(const net::Packet& p) { cell_.SendFromUe(kUe, p); }
  [[nodiscard]] net::PacketHandler AsHandler() {
    return [this](const net::Packet& p) { SendFromUe(p); };
  }

  /// Packets pop out here at the mobile core (capture point ② of Fig. 2).
  void set_core_sink(net::PacketHandler sink) { core_sink_ = std::move(sink); }

  // --- telemetry (what NG-Scope exposes; Athena's L1 input) ---
  [[nodiscard]] const std::vector<TbRecord>& telemetry() const { return ue().telemetry; }

  /// Streams each telemetry record as it is produced (for online
  /// consumers such as the §5.3 PHY-informed controller).
  void set_telemetry_listener(std::function<void(const TbRecord&)> listener) {
    cell_.set_telemetry_listener(std::move(listener));
  }

  // --- ground truth (tests only; see types.hpp) ---
  [[nodiscard]] const std::vector<TbTruth>& truth() const { return cell_.truth(); }

  [[nodiscard]] const RanCounters& counters() const { return cell_.counters(); }
  [[nodiscard]] const RanConfig& config() const { return cell_.config(); }
  [[nodiscard]] GrantPolicy& policy() { return *policy_; }

  /// Current RLC buffer occupancy in bytes (diagnostics).
  [[nodiscard]] std::uint32_t buffer_bytes() const { return ue().TotalBufferBytes(); }

  /// Capacity trace computed from granted transport-block sizes, windowed —
  /// exactly how the paper derives the Fig. 7 emulated-baseline rate.
  [[nodiscard]] net::CapacityTrace ObservedCapacityTrace(sim::Duration window) const;

 private:
  static constexpr std::uint32_t kUe = 0;

  [[nodiscard]] const UeRadioState& ue() const { return *cell_.FindUe(kUe); }

  sim::Simulator& sim_;
  GrantPolicy* policy_ = nullptr;  ///< owned by cell_'s policy adapter
  MultiUeUplink cell_;
  net::PacketHandler core_sink_;
};

}  // namespace athena::ran
