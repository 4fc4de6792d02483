// Uplink grant policies.
//
// The scheduler asks its policy, once per uplink slot, how large a
// new-data TB to grant the measured UE. The default `BsrGrantPolicy`
// reproduces §3.1 faithfully — small proactive grants every slot plus
// BSR-requested grants that mature ~10 ms later and are sized from the
// buffer state *at BSR time* (the over-granting pathology). §5.2's
// application-aware scheduler is just another implementation of this
// interface (src/mitigation/).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "ran/config.hpp"
#include "ran/types.hpp"
#include "sim/time.hpp"

namespace athena::ran {

class GrantPolicy {
 public:
  virtual ~GrantPolicy() = default;

  struct SlotInfo {
    sim::TimePoint slot_time;
    std::uint32_t available_bytes = 0;  ///< capacity left after cross traffic & HARQ rtx
  };

  struct Decision {
    std::uint32_t tbs_bytes = 0;  ///< 0 = no new-data TB this slot
    GrantType grant = GrantType::kProactive;
  };

  /// Called at every uplink slot; returns the new-data TB grant.
  virtual Decision OnUplinkSlot(const SlotInfo& slot) = 0;

  /// Called when a BSR from the UE is successfully decoded. `reported`
  /// is the UE buffer occupancy at the time the BSR was *built*.
  virtual void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) = 0;

  /// Called after the UE fills the granted TB (what was actually used) —
  /// learning-based policies observe traffic through this.
  virtual void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                          std::uint32_t used_bytes) = 0;
};

/// The paper's baseline scheduler (§3.1).
class BsrGrantPolicy : public GrantPolicy {
 public:
  explicit BsrGrantPolicy(const RanConfig& config) : config_(config) {}

  Decision OnUplinkSlot(const SlotInfo& slot) override;
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override;

  /// Issues the requested grants matured by `slot_time`, up to `budget`
  /// bytes; returns the bytes issued (0 when nothing matured). A
  /// remainder the budget cannot honour stays pending for the next slot:
  /// it was promised, and contention merely delays it.
  std::uint32_t IssueMatured(sim::TimePoint slot_time, std::uint32_t budget);

  /// Requested-grant bytes scheduled but not yet issued (diagnostics).
  [[nodiscard]] std::uint32_t outstanding_requested_bytes() const { return outstanding_; }

 private:
  struct PendingGrant {
    sim::TimePoint usable_from;
    std::uint32_t bytes = 0;
  };

  RanConfig config_;
  std::deque<PendingGrant> pending_;
  /// Bytes already promised to the UE (issued or pending). New BSRs only
  /// request the excess over this — but crucially nobody accounts for the
  /// bytes *proactive* grants drain during the scheduling delay, which is
  /// exactly the over-granting bug of §3.1.
  std::uint32_t outstanding_ = 0;
};

/// Runtime-switchable policy pair: the actuation seam the mitigation
/// control plane drives. Wraps a `baseline` and an `alternate` policy;
/// a mode knob selects which one issues grants, while *both* observe
/// every BSR decode and TB fill so the inactive policy keeps learning
/// and a switch takes effect with warm state. A clamped
/// `proactive_scale` knob additionally shrinks/boosts proactive grant
/// sizes (the §3.1 over-granting dial).
///
/// Switching consumes slot decisions from only the active policy; the
/// inactive one's pending-grant bookkeeping can go stale across long
/// active stretches, which is safe (grants are re-clamped to available
/// capacity every slot) but means a revert resumes conservatively.
class TunableGrantPolicy final : public GrantPolicy {
 public:
  static constexpr double kMinProactiveScale = 0.25;
  static constexpr double kMaxProactiveScale = 4.0;

  TunableGrantPolicy(std::unique_ptr<GrantPolicy> baseline,
                     std::unique_ptr<GrantPolicy> alternate);

  Decision OnUplinkSlot(const SlotInfo& slot) override;
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override;

  /// Knob: selects the grant-issuing policy. Rejects the switch when no
  /// alternate was provided (returns false).
  bool set_use_alternate(bool use_alternate);
  [[nodiscard]] bool use_alternate() const { return use_alternate_; }

  /// Knob: scales proactive grants, clamped to [0.25, 4]. NaN is rejected
  /// with ATHENA_CHECK. Returns the value actually applied.
  double set_proactive_scale(double scale);
  [[nodiscard]] double proactive_scale() const { return proactive_scale_; }

  [[nodiscard]] GrantPolicy& baseline() { return *baseline_; }
  [[nodiscard]] GrantPolicy* alternate() { return alternate_.get(); }
  [[nodiscard]] std::uint64_t mode_switches() const { return mode_switches_; }

 private:
  std::unique_ptr<GrantPolicy> baseline_;
  std::unique_ptr<GrantPolicy> alternate_;
  bool use_alternate_ = false;
  double proactive_scale_ = 1.0;
  std::uint64_t mode_switches_ = 0;
};

/// Multi-UE scheduler: divides one cell's per-slot PUSCH budget among the
/// attached UEs. It is the policy seam of the one uplink scheduler
/// (MultiUeUplink); the single-UE `GrantPolicy` reaches it through
/// RanUplink's adapter. Under load a UE's grant waits not only for the
/// scheduling delay but for its *turn*, which is the population-level
/// queueing the fleet reports surface.
class MultiUeGrantPolicy {
 public:
  virtual ~MultiUeGrantPolicy() = default;

  struct UeDemand {
    std::uint32_t ue = 0;
  };

  struct Allocation {
    std::uint32_t ue = 0;
    std::uint32_t tbs_bytes = 0;
    GrantType grant = GrantType::kProactive;
  };

  /// Splits `available_bytes` (capacity left after cross traffic and HARQ
  /// retransmissions) among the UEs in `demand` (sorted by UE id) into
  /// `out` (cleared first). At most one allocation per UE, in UE-id order
  /// so the caller's transmit sequence is deterministic. `slot_index`
  /// rotates round-robin fairness across slots.
  virtual void OnUplinkSlot(sim::TimePoint slot_time, std::uint64_t slot_index,
                            std::uint32_t available_bytes,
                            const std::vector<UeDemand>& demand,
                            std::vector<Allocation>& out) = 0;

  /// A BSR from `ue` decoded at the gNB (piggy-backed or via SR).
  virtual void OnBsrDecoded(std::uint32_t ue, sim::TimePoint decoded_at,
                            std::uint32_t reported_bytes) = 0;

  /// The UE filled the TB `grant` allocated at `slot_time` with
  /// `used_bytes` of payload.
  virtual void OnTbFilled(sim::TimePoint slot_time, const Allocation& grant,
                          std::uint32_t used_bytes) = 0;

  /// Forgets all scheduler state for `ue` (handover detach).
  virtual void OnUeRemoved(std::uint32_t ue) = 0;
};

/// The baseline multi-UE scheduler: one BsrGrantPolicy per UE (the same
/// §3.1 over-granting blind spot), matured requested grants served in
/// UE-id order, then proactive grants handed out round-robin (rotation
/// offset = slot_index mod population) until the slot budget runs out.
class SharedBsrGrantPolicy : public MultiUeGrantPolicy {
 public:
  explicit SharedBsrGrantPolicy(const RanConfig& config) : config_(config) {}

  void OnUplinkSlot(sim::TimePoint slot_time, std::uint64_t slot_index,
                    std::uint32_t available_bytes, const std::vector<UeDemand>& demand,
                    std::vector<Allocation>& out) override;
  void OnBsrDecoded(std::uint32_t ue, sim::TimePoint decoded_at,
                    std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Allocation& grant,
                  std::uint32_t used_bytes) override;
  void OnUeRemoved(std::uint32_t ue) override;

 private:
  RanConfig config_;
  /// Ordered map: every per-slot iteration is in UE-id order, so the
  /// allocation sequence is a pure function of (slot, demand, state).
  std::map<std::uint32_t, BsrGrantPolicy> ues_;
};

}  // namespace athena::ran
