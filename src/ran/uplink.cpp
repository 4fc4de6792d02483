#include "ran/uplink.hpp"

#include "obs/trace.hpp"

namespace athena::ran {
namespace {

/// Maps the single-UE GrantPolicy seam onto the cell's: the one attached
/// UE is offered the whole slot budget, and every BSR and TB fill is its.
class SingleUePolicy final : public MultiUeGrantPolicy {
 public:
  explicit SingleUePolicy(std::unique_ptr<GrantPolicy> policy) : policy_(std::move(policy)) {}

  [[nodiscard]] GrantPolicy& policy() { return *policy_; }

  void OnUplinkSlot(sim::TimePoint slot_time, std::uint64_t, std::uint32_t available_bytes,
                    const std::vector<UeDemand>& demand, std::vector<Allocation>& out) override {
    out.clear();
    const GrantPolicy::Decision d = policy_->OnUplinkSlot({slot_time, available_bytes});
    out.push_back(Allocation{demand.front().ue, d.tbs_bytes, d.grant});
  }
  void OnBsrDecoded(std::uint32_t, sim::TimePoint decoded_at,
                    std::uint32_t reported_bytes) override {
    policy_->OnBsrDecoded(decoded_at, reported_bytes);
  }
  void OnTbFilled(sim::TimePoint slot_time, const Allocation& grant,
                  std::uint32_t used_bytes) override {
    policy_->OnTbFilled(slot_time, GrantPolicy::Decision{grant.tbs_bytes, grant.grant},
                        used_bytes);
  }
  void OnUeRemoved(std::uint32_t) override {}

 private:
  std::unique_ptr<GrantPolicy> policy_;
};

std::unique_ptr<SingleUePolicy> AdaptPolicy(std::unique_ptr<GrantPolicy> policy,
                                            const RanConfig& config) {
  return std::make_unique<SingleUePolicy>(policy ? std::move(policy)
                                                 : std::make_unique<BsrGrantPolicy>(config));
}

}  // namespace

RanUplink::RanUplink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
                     CrossTraffic cross_traffic, std::unique_ptr<GrantPolicy> policy)
    : sim_(sim),
      cell_(sim, config, /*cell_tag=*/0, AdaptPolicy(std::move(policy), config),
            std::move(cross_traffic), /*record_truth=*/true) {
  policy_ = &static_cast<SingleUePolicy&>(cell_.policy()).policy();
  UeRadioState ue;
  ue.channel = channel;
  cell_.AttachUe(kUe, std::move(ue));
  cell_.set_deliver_sink([this](std::uint32_t, const UeDeliveryState& delivered,
                                sim::TimePoint) {
    sim_.ScheduleAfter(cell_.config().gnb_to_core_delay,
                       [this, pkt = delivered.pkt, enqueued_at = delivered.enqueued_at] {
                         obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kRanTransit, pkt.id,
                                             enqueued_at, sim_.Now(),
                                             {{"bytes", static_cast<double>(pkt.size_bytes)}});
                         if (core_sink_) core_sink_(pkt);
                       });
  });
}

net::CapacityTrace RanUplink::ObservedCapacityTrace(sim::Duration window) const {
  net::CapacityTrace trace;
  const std::vector<TbRecord>& records = telemetry();
  if (records.empty()) return trace;
  sim::TimePoint window_start = sim::kEpoch;
  std::uint64_t bytes = 0;
  for (const auto& tb : records) {
    while (tb.slot_time >= window_start + window) {
      trace.Append(window_start,
                   static_cast<double>(bytes) * 8.0 / sim::ToSeconds(window));
      window_start += window;
      bytes = 0;
    }
    if (tb.harq_round == 0) bytes += tb.tbs_bytes;
  }
  trace.Append(window_start, static_cast<double>(bytes) * 8.0 / sim::ToSeconds(window));
  return trace;
}

}  // namespace athena::ran
