#include "obs/live/live.hpp"

namespace athena::obs::live {

LiveEngine::LiveEngine(Options options)
    : bank_(options.detectors), log_(options.log_capacity) {
  bank_.set_on_anomaly([this](const AnomalyEvent& e) {
    log_.PushAnomaly(e);
    if (anomaly_listener_) anomaly_listener_(e);
  });
}

namespace {

/// The only async spans the decoder acts on. Everything else (packet
/// transits on the wired hops, sim bookkeeping, ...) is rejected before
/// the 128-byte pending-begin copy — async begins dominate a stressed
/// session's event stream.
bool DecodedSpan(const TraceEvent& event) {
  switch (event.layer) {
    case Layer::kRan:
      return event.name == names::kRanTransit.id ||
             event.name == names::kHarqChain.id;
    case Layer::kMedia:
      return event.name == names::kFrameJb.id ||
             event.name == names::kSampleJb.id;
    case Layer::kCore:
      return event.name == names::kPktUplink.id;
    default:
      return false;
  }
}

}  // namespace

void LiveEngine::Emit(const TraceEvent& event) {
  // All name checks are integer compares against the pre-interned ids in
  // obs::names — the streaming decode path never touches strings.
  switch (event.phase) {
    case TraceEvent::Phase::kAsyncBegin:
      if (DecodedSpan(event)) {
        pending_begin_ = event;
        have_pending_ = true;
      }
      return;

    case TraceEvent::Phase::kAsyncEnd:
      if (have_pending_ && pending_begin_.layer == event.layer &&
          pending_begin_.id == event.id && pending_begin_.name == event.name) {
        have_pending_ = false;
        OnSpan(pending_begin_, event);
      }
      return;

    case TraceEvent::Phase::kInstant:
      if (event.layer == Layer::kRan &&
          (event.name == names::kTbTx.id || event.name == names::kTbRtx.id)) {
        bank_.OnTb(TbObservation{
            .slot_time = event.ts,
            .tbs_bytes = static_cast<std::uint32_t>(event.Arg("tbs")),
            .used_bytes = static_cast<std::uint32_t>(event.Arg("used")),
            .harq_round = static_cast<std::uint8_t>(event.Arg("round")),
            .crc_ok = event.Arg("crc_ok") != 0.0,
            .requested_grant = event.Arg("grant") != 0.0,
        });
      } else if (event.layer == Layer::kCc && event.name == names::kCcOveruse.id) {
        ++overuse_events_;
        bank_.OnOveruse(OveruseObservation{event.ts, event.Arg("trend_ms")});
      } else if (event.layer == Layer::kNet && event.name == names::kLinkDrop.id) {
        ++link_drops_;
      } else if (event.name == names::kOverloadShed.id) {
        bank_.OnShed(ShedSample{
            .t = event.ts,
            .shed_total = event.Arg("total"),
            .shed_capped = event.Arg("capped"),
        });
      }
      return;

    case TraceEvent::Phase::kCounter:
      if (event.layer == Layer::kRan && event.name == names::kRanRlcBytes.id) {
        bank_.OnBacklog(BacklogSample{event.ts, event.Arg("value")});
      }
      return;

    case TraceEvent::Phase::kComplete:
      return;
  }
}

void LiveEngine::OnSpan(const TraceEvent& begin, const TraceEvent& end) {
  if (begin.layer == Layer::kRan && begin.name == names::kRanTransit.id) {
    ++deliveries_;
    bank_.OnDelivery(Delivery{
        .packet_id = begin.id,
        .enqueued_at = begin.ts,
        .delivered_at = end.ts,
        .bytes = static_cast<std::uint32_t>(begin.Arg("bytes")),
    });
  } else if (begin.layer == Layer::kRan && begin.name == names::kHarqChain.id) {
    bank_.OnHarqChain(HarqChainObservation{
        .first_tx = begin.ts,
        .done = end.ts,
        .rounds = static_cast<std::uint8_t>(begin.Arg("rounds")),
        .dropped = begin.Arg("dropped") != 0.0,
    });
  } else if (begin.layer == Layer::kMedia &&
             (begin.name == names::kFrameJb.id || begin.name == names::kSampleJb.id)) {
    ++frames_rendered_;
    if (begin.Arg("late") != 0.0) ++frames_late_;
  } else if (begin.layer == Layer::kCore && begin.name == names::kPktUplink.id) {
    const auto cause = static_cast<std::size_t>(begin.Arg("cause"));
    if (cause < core_causes_.size()) ++core_causes_[cause];
  }
}

}  // namespace athena::obs::live
