#include <utility>

#include "sim/check.hpp"
#include "world/cell.hpp"

namespace athena::world {
namespace {

class NrCell final : public Cell {
 public:
  NrCell(Context ctx, ran::RanConfig config)
      : ctx_(std::move(ctx)),
        uplink_(*ctx_.sim, config, /*cell_tag=*/ctx_.id,
                /*policy=*/nullptr) {
    uplink_.set_deliver_sink(
        [this](std::uint32_t ue, const ran::UeDeliveryState& delivered,
               sim::TimePoint decoded_at) {
          // gNB → core: at least one lookahead (the core-delivery hop is
          // a mailbox edge, so it must respect the conservative bound).
          const sim::Duration hop =
              std::max(ctx_.lookahead, uplink_.config().gnb_to_core_delay);
          WorldMsg msg;
          msg.kind = WorldMsg::Kind::kCoreDelivery;
          msg.src = ctx_.id;
          msg.dst = static_cast<EntityId>(ue);
          msg.seq = next_seq_++;
          msg.arrival = decoded_at + hop;
          msg.ue = ue;
          msg.pkt = delivered.pkt;
          ctx_.post(std::move(msg));
        });
  }

  void Start() override { uplink_.Start(); }
  void Stop() override { uplink_.Stop(); }

  void AttachInitial(std::uint32_t ue, ran::UeRadioState state) override {
    uplink_.AttachUe(ue, std::move(state));
  }

  void SetOutage(sim::TimePoint start, sim::TimePoint end) override {
    uplink_.SetOutage(start, end);
  }

  void OnMessage(WorldMsg& msg) override {
    switch (msg.kind) {
      case WorldMsg::Kind::kUplink:
        // A detach can race an in-flight uplink datagram (posted before
        // the session learned of the handover); RLC-UM drops it. The
        // session's conservation ledger accounts for this via the
        // cell-side `offered` counter, so count it explicitly.
        if (uplink_.HasUe(msg.ue)) {
          uplink_.SendFromUe(msg.ue, msg.pkt);
        } else {
          ++stray_uplink_;
        }
        break;
      case WorldMsg::Kind::kDetach: {
        ATHENA_CHECK(uplink_.HasUe(msg.ue), "kDetach for UE not attached here");
        auto state = std::make_unique<ran::UeRadioState>(uplink_.DetachUe(msg.ue));
        WorldMsg transfer;
        transfer.kind = WorldMsg::Kind::kTransfer;
        transfer.src = ctx_.id;
        transfer.dst = msg.target_cell;
        transfer.seq = next_seq_++;
        transfer.arrival =
            ctx_.sim->Now() + std::max(ctx_.lookahead, ctx_.handover_latency);
        transfer.ue = msg.ue;
        transfer.radio = std::move(state);
        ctx_.post(std::move(transfer));
        break;
      }
      case WorldMsg::Kind::kTransfer: {
        ATHENA_CHECK(msg.radio != nullptr, "kTransfer without radio state");
        uplink_.AttachUe(msg.ue, std::move(*msg.radio));
        msg.radio.reset();
        WorldMsg attached;
        attached.kind = WorldMsg::Kind::kAttached;
        attached.src = ctx_.id;
        attached.dst = static_cast<EntityId>(msg.ue);
        attached.seq = next_seq_++;
        attached.arrival = ctx_.sim->Now() + ctx_.lookahead;
        attached.ue = msg.ue;
        ctx_.post(std::move(attached));
        break;
      }
      default:
        ATHENA_CHECK(false, "unexpected message kind at cell");
    }
  }

  std::vector<std::uint32_t> AttachedUes() const override { return uplink_.AttachedUes(); }
  const ran::UeRadioState* FindUe(std::uint32_t ue) const override {
    return uplink_.FindUe(ue);
  }
  const ran::RanCounters& counters() const override { return uplink_.counters(); }
  std::uint64_t slots_run() const override { return uplink_.slots_run(); }

  void AppendDigest(std::vector<std::uint64_t>& out) const override {
    const ran::RanCounters& c = uplink_.counters();
    out.push_back(c.tb_new);
    out.push_back(c.tb_rtx);
    out.push_back(c.tb_failed);
    out.push_back(c.tb_dropped_chains);
    out.push_back(c.granted_bytes);
    out.push_back(c.used_bytes);
    out.push_back(c.packets_delivered);
    out.push_back(c.packets_lost);
    out.push_back(c.bsr_sent);
    out.push_back(uplink_.slots_run());
    out.push_back(stray_uplink_);
    for (std::uint32_t ue : uplink_.AttachedUes()) out.push_back(ue);
  }

 private:
  Context ctx_;
  ran::MultiUeUplink uplink_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t stray_uplink_ = 0;
};

}  // namespace

std::unique_ptr<Cell> MakeNrCell(Cell::Context ctx, ran::RanConfig config) {
  return std::make_unique<NrCell>(std::move(ctx), std::move(config));
}

}  // namespace athena::world
