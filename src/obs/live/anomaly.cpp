#include "obs/live/anomaly.hpp"

#include <ostream>

#include "obs/trace_json.hpp"

namespace athena::obs::live {

const char* ToString(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kDelaySpreadQuantization: return "delay-spread slot quantization";
    case AnomalyKind::kHarqRtxInflation: return "HARQ retransmission inflation";
    case AnomalyKind::kBsrGrantWait: return "BSR grant-wait";
    case AnomalyKind::kOverGranting: return "over-granting (PRB waste)";
    case AnomalyKind::kQueueBuildup: return "cross-traffic queue buildup";
    case AnomalyKind::kTelemetryGap: return "telemetry feed gap";
    case AnomalyKind::kOverload: return "telemetry overload shedding";
  }
  return "?";
}

const char* SlugFor(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kDelaySpreadQuantization: return "delay_spread_quantization";
    case AnomalyKind::kHarqRtxInflation: return "harq_rtx_inflation";
    case AnomalyKind::kBsrGrantWait: return "bsr_grant_wait";
    case AnomalyKind::kOverGranting: return "over_granting";
    case AnomalyKind::kQueueBuildup: return "queue_buildup";
    case AnomalyKind::kTelemetryGap: return "telemetry_gap";
    case AnomalyKind::kOverload: return "overload";
  }
  return "unknown";
}

void WriteJson(std::ostream& os, const AnomalyEvent& e) {
  os << "{\"type\":\"anomaly\",\"kind\":\"" << SlugFor(e.kind) << "\",\"layer\":\""
     << obs::ToString(e.layer) << "\",\"window_begin_us\":" << e.window_begin.us()
     << ",\"window_end_us\":" << e.window_end.us()
     << ",\"confidence\":" << jsonio::Number{e.confidence} << ",\"detector\":";
  jsonio::WriteString(os, e.detector);
  os << ",\"message\":";
  jsonio::WriteString(os, e.message);
  os << ",\"evidence\":{";
  for (std::size_t i = 0; i < e.evidence_count; ++i) {
    if (i > 0) os << ",";
    jsonio::WriteString(os, e.evidence[i].key);
    os << ":" << jsonio::Number{e.evidence[i].value};
  }
  os << "}}";
}

EventLog::EventLog(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void EventLog::PushAnomaly(const AnomalyEvent& event) {
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++pushed_;
}

std::vector<const AnomalyEvent*> EventLog::Ordered() const {
  std::vector<const AnomalyEvent*> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(&ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void EventLog::WriteJsonl(std::ostream& os) const {
  for (const AnomalyEvent* e : Ordered()) {
    WriteJson(os, *e);
    os << '\n';
  }
}

}  // namespace athena::obs::live
