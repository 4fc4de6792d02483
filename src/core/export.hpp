// CSV export of Athena's artifacts: per-packet cross-layer records,
// per-frame aggregates, raw telemetry and capture logs. The schemas are
// stable and documented per column so downstream tooling (pandas, R,
// gnuplot) can regenerate the paper's figures from a session dump.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/correlator.hpp"
#include "net/capture.hpp"
#include "ran/types.hpp"

namespace athena::core {

class CsvExport {
 public:
  /// packets.csv — one row per correlated uplink packet:
  /// packet_id,kind,size_bytes,frame_id,layer,sent_us,core_us,reached_core,
  /// uplink_owd_us,sched_wait_us,spread_us,rtx_us,harq_rounds,last_grant,
  /// tb_chains,cause
  static void Packets(std::ostream& os, const CrossLayerDataset& data);

  /// frames.csv — one row per media unit:
  /// frame_id,layer,is_audio,packets,complete,first_sent_us,last_sent_us,
  /// first_core_us,last_core_us,sender_spread_us,core_spread_us,frame_delay_us
  static void Frames(std::ostream& os, const CrossLayerDataset& data);

  /// telemetry.csv — one row per TB transmission:
  /// tb_id,chain_id,slot_us,grant,tbs_bytes,used_bytes,harq_round,crc_ok
  static void Telemetry(std::ostream& os, const std::vector<ran::TbRecord>& telemetry);

  /// capture.csv — one row per captured packet:
  /// packet_id,local_us,kind,size_bytes,flow,frame_id,transport_seq
  static void Capture(std::ostream& os, const net::CaptureLog& records);
};

}  // namespace athena::core
