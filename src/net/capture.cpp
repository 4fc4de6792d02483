#include "net/capture.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"

namespace athena::net {

void CapturePoint::OnPacket(const Packet& p) {
  ATHENA_CHECK(!(p.rtp && p.icmp),
               "a captured packet carries an RTP or an ICMP header, not both");
  const sim::TimePoint now = sim_.Now();
  CaptureRecord r;
  r.packet_id = p.id;
  r.local_ts = clock_.ToLocal(now);
  r.true_ts = now;
  r.size_bytes = p.size_bytes;
  r.flow = p.flow;
  r.kind = p.kind;
  if (p.rtp) r.set_rtp(*p.rtp);
  if (p.icmp) r.set_icmp(*p.icmp);
  log_.push_back(r);
  if (obs::trace_enabled()) {
    // One instant per tap, named after the capture point (Fig. 2 ①–④),
    // so a packet's journey reads as a row of dots across the net track.
    obs::TraceInstant(obs::Layer::kNet, trace_name_, now,
                      {{"packet", static_cast<double>(p.id)},
                       {"bytes", static_cast<double>(p.size_bytes)}});
  }
  static thread_local obs::CachedCounter counter_captured{"net.captured"};
  counter_captured.Inc();
  if (sink_) sink_(p);
}

}  // namespace athena::net
