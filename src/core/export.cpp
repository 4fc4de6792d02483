#include "core/export.hpp"

#include <ostream>

namespace athena::core {

void CsvExport::Packets(std::ostream& os, const CrossLayerDataset& data) {
  os << "packet_id,kind,size_bytes,frame_id,layer,sent_us,core_us,reached_core,"
        "uplink_owd_us,sched_wait_us,spread_us,rtx_us,harq_rounds,last_grant,"
        "tb_chains,cause\n";
  for (const auto& p : data.packets) {
    os << p.packet_id << ',' << net::ToString(p.kind) << ',' << p.size_bytes << ','
       << p.frame_id << ',' << net::ToString(p.layer) << ',' << p.sent_at.us() << ','
       << (p.reached_core ? p.core_at.us() : -1) << ',' << (p.reached_core ? 1 : 0) << ','
       << p.uplink_owd.count() << ',' << p.sched_wait.count() << ','
       << p.transmission_spread.count() << ',' << p.rtx_inflation.count() << ','
       << static_cast<int>(p.max_harq_rounds) << ',' << ran::ToString(p.last_grant) << ',';
    for (std::size_t i = 0; i < p.tb_chains.size(); ++i) {
      if (i > 0) os << ';';  // the chain list stays one CSV cell
      os << p.tb_chains[i];
    }
    os << ',' << ToString(p.primary_cause) << '\n';
  }
}

void CsvExport::Frames(std::ostream& os, const CrossLayerDataset& data) {
  os << "frame_id,layer,is_audio,packets,complete,first_sent_us,last_sent_us,"
        "first_core_us,last_core_us,sender_spread_us,core_spread_us,frame_delay_us\n";
  for (const auto& f : data.frames) {
    os << f.frame_id << ',' << net::ToString(f.layer) << ',' << (f.is_audio ? 1 : 0) << ','
       << f.packets << ',' << (f.complete_at_core ? 1 : 0) << ',' << f.first_sent.us() << ','
       << f.last_sent.us() << ',' << f.first_core.us() << ',' << f.last_core.us() << ','
       << f.SenderSpread().count() << ',' << f.CoreSpread().count() << ','
       << f.FrameDelay().count() << '\n';
  }
}

void CsvExport::Telemetry(std::ostream& os, const std::vector<ran::TbRecord>& telemetry) {
  os << "tb_id,chain_id,slot_us,grant,tbs_bytes,used_bytes,harq_round,crc_ok\n";
  for (const auto& tb : telemetry) {
    os << tb.tb_id << ',' << tb.chain_id << ',' << tb.slot_time.us() << ','
       << ran::ToString(tb.grant) << ',' << tb.tbs_bytes << ',' << tb.used_bytes << ','
       << static_cast<int>(tb.harq_round) << ',' << (tb.crc_ok ? 1 : 0) << '\n';
  }
}

void CsvExport::Capture(std::ostream& os, const net::CaptureLog& records) {
  os << "packet_id,local_us,kind,size_bytes,flow,frame_id,transport_seq\n";
  for (const auto& r : records) {
    os << r.packet_id << ',' << r.local_ts.us() << ',' << net::ToString(r.kind) << ','
       << r.size_bytes << ',' << r.flow << ',';
    if (const net::RtpMeta* rtp = r.rtp()) {
      os << rtp->frame_id << ',' << rtp->transport_seq;
    } else {
      os << ",";
    }
    os << '\n';
  }
}

}  // namespace athena::core
