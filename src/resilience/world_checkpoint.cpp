#include "resilience/world_checkpoint.hpp"

#include <sstream>

#include "sim/barrier.hpp"

namespace athena::resilience {

std::uint64_t WorldConfigFingerprint(const world::WorldConfig& config) {
  // A drift detector, not a cryptographic identity: covers every scalar
  // knob that shapes the simulation. Layout and fault-injection knobs
  // are excluded on purpose (see the header).
  StateDigest d;
  d.Mix(config.seed);
  d.Mix(config.ues);
  d.Mix(config.cells);
  d.Mix(static_cast<std::uint64_t>(config.duration.count()));
  d.Mix(static_cast<std::uint64_t>(config.link_latency.count()));
  d.Mix(static_cast<std::uint64_t>(config.cell.ul_slot_period.count()));
  d.Mix(static_cast<std::uint64_t>(config.cell.slot_duration.count()));
  d.Mix(static_cast<std::uint64_t>(config.cell.bsr_scheduling_delay.count()));
  d.Mix(config.cell.proactive_grant_bytes);
  d.Mix(static_cast<std::uint64_t>(config.cell.cell_ul_capacity_bps));
  d.Mix(static_cast<std::uint64_t>(config.cell.ue_processing_delay.count()));
  d.Mix(static_cast<std::uint64_t>(config.cell.rtx_delay.count()));
  d.Mix(config.cell.max_harq_rounds);
  d.Mix(static_cast<std::uint64_t>(config.cell.ecn_marking_threshold.count()));
  d.Mix(static_cast<std::uint64_t>(config.cell.gnb_to_core_delay.count()));
  d.Mix(static_cast<std::uint64_t>(config.channel.base_bler * 1e9));
  d.Mix(static_cast<std::uint64_t>(config.channel.rtx_bler_factor * 1e9));
  d.Mix(static_cast<std::uint64_t>(config.channel.bad_state_bler * 1e9));
  d.Mix(static_cast<std::uint64_t>(config.channel.p_good_to_bad * 1e9));
  d.Mix(static_cast<std::uint64_t>(config.channel.p_bad_to_good * 1e9));
  d.Mix(config.handover_every);
  d.Mix(static_cast<std::uint64_t>(config.handover_latency.count()));
  d.Mix(static_cast<std::uint64_t>(config.wan_delay.count()));
  d.Mix(static_cast<std::uint64_t>(config.wan_jitter.count()));
  d.Mix(static_cast<std::uint64_t>(config.feedback_delay.count()));
  d.Mix(config.outage_cell);
  d.Mix(static_cast<std::uint64_t>(config.outage_start.us()));
  d.Mix(static_cast<std::uint64_t>(config.outage_end.us()));
  d.Mix(config.scenario);
  return d.value();
}

namespace {

sim::WindowSchedule ScheduleOf(const world::WorldConfig& config) {
  return sim::WindowSchedule::Cover(sim::kEpoch, sim::kEpoch + config.duration,
                                    config.link_latency);
}

}  // namespace

Checkpoint SnapshotWorld(const world::WorldEngine& engine, std::uint64_t window) {
  const world::WorldConfig& config = engine.config();
  Checkpoint s;
  s.config_fingerprint = WorldConfigFingerprint(config);
  s.seed = config.seed;
  s.virtual_time = ScheduleOf(config).WindowEnd(window);
  s.state_digest = engine.Digest();
  s.mailbox = engine.PendingMailRecords();
  return s;
}

std::uint64_t SnapshotWindow(const world::WorldConfig& config, const Checkpoint& snapshot) {
  const sim::WindowSchedule schedule = ScheduleOf(config);
  const std::int64_t offset = (snapshot.virtual_time - schedule.start).count();
  const std::int64_t step = schedule.lookahead.count();
  const std::uint64_t window =
      offset > 0 ? static_cast<std::uint64_t>(offset / step) : 0;
  if (window == 0 || window >= schedule.windows ||
      schedule.WindowEnd(window) != snapshot.virtual_time) {
    throw CheckpointError("world snapshot time " + sim::ToString(snapshot.virtual_time) +
                          " is not an interior window boundary of this run (" +
                          std::to_string(schedule.windows) + " windows of " +
                          sim::ToString(schedule.lookahead) + ")");
  }
  return window;
}

std::string DescribeWorldDivergence(
    const Checkpoint& expected, std::uint64_t window, std::uint64_t replayed_digest,
    const std::vector<world::WorldMsgRecord>& replayed_mailbox) {
  std::ostringstream os;
  os << "replay diverged from the snapshot at window " << window << ": ";
  if (replayed_digest != expected.state_digest) {
    os << "state digest 0x" << std::hex << replayed_digest << " != snapshot 0x"
       << expected.state_digest << std::dec;
    return os.str();
  }
  if (replayed_mailbox.size() != expected.mailbox.size()) {
    os << "pending mailbox has " << replayed_mailbox.size() << " messages, snapshot has "
       << expected.mailbox.size();
    return os.str();
  }
  for (std::size_t i = 0; i < expected.mailbox.size(); ++i) {
    if (!(replayed_mailbox[i] == expected.mailbox[i])) {
      const auto& a = replayed_mailbox[i];
      const auto& b = expected.mailbox[i];
      os << "mailbox record " << i << " differs (replayed kind=" << int(a.kind)
         << " src=" << a.src << " seq=" << a.seq << " arrival=" << a.arrival_us
         << "us payload=0x" << std::hex << a.payload_digest << std::dec
         << "; snapshot kind=" << int(b.kind) << " src=" << b.src << " seq=" << b.seq
         << " arrival=" << b.arrival_us << "us payload=0x" << std::hex
         << b.payload_digest << std::dec << ")";
      return os.str();
    }
  }
  os << "no field differs (spurious divergence report)";
  return os.str();
}

}  // namespace athena::resilience
