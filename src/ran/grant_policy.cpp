#include "ran/grant_policy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/check.hpp"

namespace athena::ran {

TunableGrantPolicy::TunableGrantPolicy(std::unique_ptr<GrantPolicy> baseline,
                                       std::unique_ptr<GrantPolicy> alternate)
    : baseline_(std::move(baseline)), alternate_(std::move(alternate)) {
  ATHENA_CHECK(baseline_ != nullptr, "TunableGrantPolicy: baseline policy required");
}

GrantPolicy::Decision TunableGrantPolicy::OnUplinkSlot(const SlotInfo& slot) {
  GrantPolicy& active = (use_alternate_ && alternate_) ? *alternate_ : *baseline_;
  Decision d = active.OnUplinkSlot(slot);
  if (d.grant == GrantType::kProactive && proactive_scale_ != 1.0) {
    const double scaled = static_cast<double>(d.tbs_bytes) * proactive_scale_;
    d.tbs_bytes = std::min(static_cast<std::uint32_t>(scaled), slot.available_bytes);
  }
  return d;
}

void TunableGrantPolicy::OnBsrDecoded(sim::TimePoint decoded_at,
                                      std::uint32_t reported_bytes) {
  baseline_->OnBsrDecoded(decoded_at, reported_bytes);
  if (alternate_) alternate_->OnBsrDecoded(decoded_at, reported_bytes);
}

void TunableGrantPolicy::OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                                    std::uint32_t used_bytes) {
  baseline_->OnTbFilled(slot_time, grant, used_bytes);
  if (alternate_) alternate_->OnTbFilled(slot_time, grant, used_bytes);
}

bool TunableGrantPolicy::set_use_alternate(bool use_alternate) {
  if (use_alternate && !alternate_) return false;
  if (use_alternate_ != use_alternate) ++mode_switches_;
  use_alternate_ = use_alternate;
  return true;
}

double TunableGrantPolicy::set_proactive_scale(double scale) {
  ATHENA_CHECK(std::isfinite(scale) && scale > 0.0,
               "TunableGrantPolicy::set_proactive_scale: scale must be finite and positive");
  proactive_scale_ = std::clamp(scale, kMinProactiveScale, kMaxProactiveScale);
  return proactive_scale_;
}

GrantPolicy::Decision BsrGrantPolicy::OnUplinkSlot(const SlotInfo& slot) {
  // Matured requested grants take the slot's PUSCH; otherwise the standing
  // proactive grant (if configured) does.
  const std::uint32_t requested = IssueMatured(slot.slot_time, slot.available_bytes);
  if (requested > 0) return Decision{requested, GrantType::kRequested};
  const std::uint32_t proactive =
      std::min(config_.proactive_grant_bytes, slot.available_bytes);
  return Decision{proactive, GrantType::kProactive};
}

std::uint32_t BsrGrantPolicy::IssueMatured(sim::TimePoint slot_time, std::uint32_t budget) {
  std::uint32_t requested = 0;
  while (!pending_.empty() && pending_.front().usable_from <= slot_time) {
    requested += pending_.front().bytes;
    pending_.pop_front();
  }
  const std::uint32_t tbs = std::min(requested, budget);
  const std::uint32_t leftover = requested - tbs;
  if (leftover > 0) {
    pending_.push_front(PendingGrant{slot_time + config_.ul_slot_period, leftover});
  }
  outstanding_ -= tbs;
  return tbs;
}

void BsrGrantPolicy::OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) {
  if (reported_bytes <= outstanding_) return;  // demand already covered
  const std::uint32_t grant = reported_bytes - outstanding_;
  outstanding_ += grant;
  // The grant becomes usable one scheduling delay later, aligned up to the
  // uplink slot grid.
  const auto delay_us = config_.bsr_scheduling_delay.count();
  const auto period_us = config_.ul_slot_period.count();
  const auto target = decoded_at.us() + delay_us;
  const auto aligned = ((target + period_us - 1) / period_us) * period_us;
  pending_.push_back(
      PendingGrant{sim::TimePoint{sim::Duration{aligned}}, grant});
}

void BsrGrantPolicy::OnTbFilled(sim::TimePoint, const Decision&, std::uint32_t) {
  // The baseline scheduler learns nothing from utilization — that blind
  // spot is the §3.1 waste finding.
}

void SharedBsrGrantPolicy::OnUplinkSlot(sim::TimePoint slot_time, std::uint64_t slot_index,
                                        std::uint32_t available_bytes,
                                        const std::vector<UeDemand>& demand,
                                        std::vector<Allocation>& out) {
  out.clear();
  if (demand.empty() || available_bytes == 0) return;
  std::uint32_t budget = available_bytes;

  // One entry per demand position (so in UE-id order); tbs_bytes 0 marks a
  // UE without a grant this slot — every real grant is > 0.
  out.resize(demand.size());

  // Pass 1 — matured requested grants, in UE-id order.
  for (std::size_t i = 0; i < demand.size() && budget > 0; ++i) {
    auto it = ues_.find(demand[i].ue);
    if (it == ues_.end()) continue;
    const std::uint32_t tbs = it->second.IssueMatured(slot_time, budget);
    if (tbs == 0) continue;
    budget -= tbs;
    out[i] = Allocation{demand[i].ue, tbs, GrantType::kRequested};
  }

  // Pass 2 — proactive grants, round-robin from a slot-rotated offset so
  // a saturated cell starves no UE permanently. UEs that already hold a
  // requested TB this slot are skipped (one PUSCH per UE per slot).
  if (config_.proactive_grant_bytes > 0) {
    const std::size_t n = demand.size();
    const std::size_t offset = static_cast<std::size_t>(slot_index % n);
    for (std::size_t i = 0; i < n && budget > 0; ++i) {
      const std::size_t slot = (offset + i) % n;
      if (out[slot].tbs_bytes != 0) continue;
      const std::uint32_t tbs = std::min(config_.proactive_grant_bytes, budget);
      budget -= tbs;
      out[slot] = Allocation{demand[slot].ue, tbs, GrantType::kProactive};
    }
  }

  std::erase_if(out, [](const Allocation& alloc) { return alloc.tbs_bytes == 0; });
}

void SharedBsrGrantPolicy::OnBsrDecoded(std::uint32_t ue, sim::TimePoint decoded_at,
                                        std::uint32_t reported_bytes) {
  ues_.try_emplace(ue, config_).first->second.OnBsrDecoded(decoded_at, reported_bytes);
}

void SharedBsrGrantPolicy::OnTbFilled(sim::TimePoint, const Allocation&, std::uint32_t) {
  // Same learning blind spot as the single-UE baseline.
}

void SharedBsrGrantPolicy::OnUeRemoved(std::uint32_t ue) { ues_.erase(ue); }

}  // namespace athena::ran
