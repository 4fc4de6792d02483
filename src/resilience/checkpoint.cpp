#include "resilience/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace athena::resilience {

// ---------------------------------------------------------------------------
// StateDigest
// ---------------------------------------------------------------------------

void StateDigest::Mix(std::uint64_t v) {
  // FNV-1a one byte at a time: byte-order independent across platforms.
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (i * 8)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void StateDigest::Mix(std::string_view s) {
  Mix(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

void StateDigest::Mix(const std::vector<ran::TbRecord>& records) {
  Mix(records.size());
  for (const auto& r : records) {
    Mix(r.tb_id);
    Mix(r.chain_id);
    Mix(static_cast<std::uint64_t>(r.slot_time.us()));
    Mix(static_cast<std::uint64_t>(r.grant));
    Mix(r.tbs_bytes);
    Mix(r.used_bytes);
    Mix(r.harq_round);
    Mix(r.crc_ok ? 1u : 0u);
  }
}

void StateDigest::Mix(const std::vector<net::CaptureRecord>& records) {
  Mix(records.size());
  for (const auto& r : records) {
    Mix(r.packet_id);
    Mix(static_cast<std::uint64_t>(r.local_ts.us()));
    Mix(static_cast<std::uint64_t>(r.kind));
    Mix(r.size_bytes);
    Mix(r.flow);
    Mix(r.rtp() != nullptr ? r.rtp()->frame_id + 1 : 0u);
    Mix(r.icmp() != nullptr ? r.icmp()->probe_seq + 1 : 0u);
  }
}

void StateDigest::Mix(const core::CorrelatorInput& input) {
  Mix(static_cast<std::uint64_t>(input.sender_offset.count()));
  Mix(static_cast<std::uint64_t>(input.receiver_offset.count()));
  Mix(input.telemetry);
  Mix(input.sender);
  Mix(input.core);
  Mix(input.receiver);
}

std::uint64_t ConfigFingerprint(const app::SessionConfig& config, sim::Duration duration) {
  // A drift detector, not a cryptographic identity: covers every scalar
  // knob that shapes the run. Functional overrides (grant_policy,
  // controller_factory) cannot be fingerprinted — restoring a checkpoint
  // under a different custom policy is the caller's responsibility.
  StateDigest d;
  d.Mix(config.seed);
  d.Mix(static_cast<std::uint64_t>(config.access));
  d.Mix(static_cast<std::uint64_t>(config.controller));
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
  d.Mix(static_cast<std::uint64_t>(config.wan_delay.count()));
  d.Mix(static_cast<std::uint64_t>(config.wan_jitter.count()));
  d.Mix(static_cast<std::uint64_t>(config.emulated_latency.count()));
  d.Mix(static_cast<std::uint64_t>(config.cross_burstiness * 1e6));
  d.Mix(static_cast<std::uint64_t>(config.cross_modulation_sigma * 1e6));
  d.Mix(config.cross_traffic.steps().size());
  for (const auto& step : config.cross_traffic.steps()) {
    d.Mix(static_cast<std::uint64_t>(step.from.us()));
    d.Mix(static_cast<std::uint64_t>(step.bits_per_second));
  }
  d.Mix(config.icmp_enabled ? 1u : 0u);
  d.Mix(static_cast<std::uint64_t>(config.icmp_interval.count()));
  d.Mix(static_cast<std::uint64_t>(config.sender_clock_offset.count()));
  d.Mix(static_cast<std::uint64_t>(config.receiver_clock_offset.count()));
  d.Mix(static_cast<std::uint64_t>(config.sender_clock_drift_ppm * 1e3));
  d.Mix(static_cast<std::uint64_t>(duration.count()));
  return d.value();
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------
//
//   [0..8)    magic "ATHCKPT\n"
//   [8..12)   u32 version
//   [12..20)  u64 config fingerprint
//   [20..28)  u64 seed
//   [28..36)  i64 virtual time (µs)
//   [36..44)  u64 state digest
//   [44..52)  u64 mailbox record count
//   ...       mailbox records (41 bytes each)
//   [-8..)    u64 FNV-1a checksum over every preceding byte
//
// All integers are written little-endian byte-by-byte, so the file is
// identical across platforms and never depends on struct layout.

namespace {

constexpr char kMagic[8] = {'A', 'T', 'H', 'C', 'K', 'P', 'T', '\n'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 5 * 8;
constexpr std::size_t kRecordBytes = 1 + 4 + 4 + 8 + 8 + 4 + 4 + 8;

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(v); }
  void U32(std::uint32_t v) { Le(v, 4); }
  void U64(std::uint64_t v) { Le(v, 8); }
  void I64(std::int64_t v) { Le(static_cast<std::uint64_t>(v), 8); }

 private:
  void Le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Le(1)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Le(4)); }
  std::uint64_t U64() { return Le(8); }
  std::int64_t I64() { return static_cast<std::int64_t>(Le(8)); }

 private:
  std::uint64_t Le(int bytes) {
    if (pos_ + static_cast<std::size_t>(bytes) > size_) {
      throw CheckpointError("checkpoint truncated: needed " + std::to_string(bytes) +
                            " bytes at offset " + std::to_string(pos_) + ", file has " +
                            std::to_string(size_));
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (i * 8);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::uint64_t FnvOver(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void Checkpoint::Serialize(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(SerializedBytes());
  Writer w{out};
  for (const char c : kMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(kVersion);
  w.U64(config_fingerprint);
  w.U64(seed);
  w.I64(virtual_time.us());
  w.U64(state_digest);
  w.U64(mailbox.size());
  for (const world::WorldMsgRecord& r : mailbox) {
    w.U8(r.kind);
    w.U32(r.src);
    w.U32(r.dst);
    w.U64(r.seq);
    w.I64(r.arrival_us);
    w.U32(r.ue);
    w.U32(r.target_cell);
    w.U64(r.payload_digest);
  }
  w.U64(FnvOver(out.data(), out.size()));
}

std::size_t Checkpoint::SerializedBytes() const {
  return kHeaderBytes + mailbox.size() * kRecordBytes + 8;
}

Checkpoint Checkpoint::Deserialize(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderBytes + 8) {
    throw CheckpointError("checkpoint truncated: " + std::to_string(size) +
                          " bytes is smaller than the minimal header");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("not a checkpoint: bad magic (expected ATHCKPT)");
  }
  // Trailer first: any corruption anywhere — header or records — must be
  // caught before a single field is trusted.
  const std::uint64_t stored_checksum = Reader{data + size - 8, 8}.U64();
  const std::uint64_t computed_checksum = FnvOver(data, size - 8);
  if (stored_checksum != computed_checksum) {
    std::ostringstream os;
    os << "checkpoint corrupted: checksum mismatch (stored 0x" << std::hex
       << stored_checksum << ", computed 0x" << computed_checksum << ")";
    throw CheckpointError(os.str());
  }

  Reader r{data + sizeof(kMagic), size - sizeof(kMagic) - 8};
  const std::uint32_t version = r.U32();
  if (version != kVersion) {
    throw CheckpointError("unsupported checkpoint version " + std::to_string(version) +
                          " (this build reads version " + std::to_string(kVersion) + ")");
  }

  Checkpoint c;
  c.config_fingerprint = r.U64();
  c.seed = r.U64();
  c.virtual_time = sim::TimePoint{sim::Duration{r.I64()}};
  c.state_digest = r.U64();
  // The count is attacker-controlled until proven payload-backed: divide
  // rather than multiply, so a huge count cannot wrap into a small
  // product and reach reserve().
  const std::uint64_t count = r.U64();
  if (count > r.remaining() / kRecordBytes || count * kRecordBytes != r.remaining()) {
    throw CheckpointError("checkpoint corrupted: header declares " + std::to_string(count) +
                          " mailbox records but " + std::to_string(r.remaining()) +
                          " payload bytes remain (" + std::to_string(kRecordBytes) +
                          " per record)");
  }
  c.mailbox.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    world::WorldMsgRecord rec;
    rec.kind = r.U8();
    rec.src = r.U32();
    rec.dst = r.U32();
    rec.seq = r.U64();
    rec.arrival_us = r.I64();
    rec.ue = r.U32();
    rec.target_cell = r.U32();
    rec.payload_digest = r.U64();
    c.mailbox.push_back(rec);
  }
  return c;
}

void Checkpoint::WriteFile(const std::string& path) const {
  std::vector<std::uint8_t> buf;
  Serialize(buf);
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) throw CheckpointError("cannot write checkpoint file " + path);
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
  if (!os) throw CheckpointError("short write to checkpoint file " + path);
}

Checkpoint Checkpoint::LoadFile(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw CheckpointError("cannot read checkpoint file " + path);
  std::vector<std::uint8_t> buf{std::istreambuf_iterator<char>(is),
                                std::istreambuf_iterator<char>()};
  return Deserialize(buf.data(), buf.size());
}

// ---------------------------------------------------------------------------
// Checkpointing driver
// ---------------------------------------------------------------------------

namespace {

std::uint64_t InputDigest(const app::Session& session) {
  StateDigest digest;
  digest.Mix(session.BuildCorrelatorInput());
  return digest.value();
}

}  // namespace

Checkpoint SnapshotSession(const sim::Simulator& sim, const app::Session& session,
                           const RunPlan& plan) {
  Checkpoint c;
  c.config_fingerprint = ConfigFingerprint(plan.config, plan.duration);
  c.seed = plan.config.seed;
  c.virtual_time = sim.Now();
  c.state_digest = InputDigest(session);
  return c;
}

CheckpointingDriver::CheckpointingDriver(RunPlan plan) : plan_(std::move(plan)) {}

RunOutcome CheckpointingDriver::Run() { return Drive(nullptr); }

void ValidateIdentity(const Checkpoint& ckpt, std::uint64_t fingerprint, std::uint64_t seed) {
  if (ckpt.config_fingerprint != fingerprint) {
    std::ostringstream os;
    os << "checkpoint was taken under a different configuration (fingerprint 0x"
       << std::hex << ckpt.config_fingerprint << ", this run 0x" << fingerprint
       << "); restoring would silently diverge";
    throw CheckpointError(os.str());
  }
  if (ckpt.seed != seed) {
    throw CheckpointError("checkpoint seed " + std::to_string(ckpt.seed) +
                          " does not match this run's seed " + std::to_string(seed));
  }
}

void ValidateRestore(const RunPlan& plan, const Checkpoint& ckpt) {
  ValidateIdentity(ckpt, ConfigFingerprint(plan.config, plan.duration), plan.config.seed);
  if (ckpt.virtual_time > sim::kEpoch + plan.duration) {
    throw CheckpointError("checkpoint lies beyond the planned duration");
  }
}

RunOutcome CheckpointingDriver::Resume(const Checkpoint& ckpt) {
  ValidateRestore(plan_, ckpt);
  return Drive(&ckpt);
}

RunOutcome CheckpointingDriver::Drive(const Checkpoint* resume_from) {
  // Live consumers (the mitigation control plane) see the whole attempt:
  // the sink covers session construction through teardown, and is
  // re-installed identically on every restart so replays decode the same
  // event stream.
  std::optional<obs::ScopedTraceSink> trace_scope;
  if (plan_.trace_sink != nullptr) trace_scope.emplace(plan_.trace_sink);

  sim::Simulator simulator;
  app::Session session{simulator, plan_.config};
  if (plan_.on_simulator) plan_.on_simulator(simulator);
  if (plan_.on_session) plan_.on_session(simulator, session);
  session.Start();

  RunOutcome outcome;
  outcome.restored = resume_from != nullptr;
  const sim::TimePoint end = sim::kEpoch + plan_.duration;

  // --- fast-forward replay to the checkpoint boundary, then verify ---
  if (resume_from != nullptr) {
    simulator.RunUntil(resume_from->virtual_time);
    const std::uint64_t replayed = InputDigest(session);
    if (replayed != resume_from->state_digest) {
      std::ostringstream os;
      os << "restore verification failed at " << sim::ToString(resume_from->virtual_time)
         << ": replayed state digest 0x" << std::hex << replayed << " != snapshot 0x"
         << resume_from->state_digest
         << " — the build or configuration is not the one that took the checkpoint";
      throw CheckpointError(os.str());
    }
    obs::SetGauge("resilience.checkpoint.restored_at_ms",
                  resume_from->virtual_time.ms());
  }

  // --- run the remainder in checkpoint-cadence slices ---
  const sim::Duration cadence = plan_.checkpoint_every;
  sim::TimePoint next_boundary = end;
  if (cadence.count() > 0) {
    // Boundaries stay on the absolute grid k × cadence whether or not the
    // run was restored, so a restored run's later checkpoints land at the
    // same virtual times as the uninterrupted run's.
    const std::int64_t elapsed = (simulator.Now() - sim::kEpoch).count();
    const std::int64_t k = elapsed / cadence.count() + 1;
    next_boundary = sim::kEpoch + sim::Duration{k * cadence.count()};
  }
  while (simulator.Now() < end) {
    const sim::TimePoint target = next_boundary < end ? next_boundary : end;
    simulator.RunUntil(target);
    if (cadence.count() > 0 && simulator.Now() >= next_boundary &&
        simulator.Now() < end) {
      Checkpoint ckpt = SnapshotSession(simulator, session, plan_);
      ++outcome.checkpoints_taken;
      outcome.last_checkpoint_bytes = ckpt.SerializedBytes();
      obs::SetGauge("resilience.checkpoint.count",
                    static_cast<double>(outcome.checkpoints_taken));
      obs::SetGauge("resilience.checkpoint.bytes",
                    static_cast<double>(outcome.last_checkpoint_bytes));
      if (plan_.on_checkpoint) plan_.on_checkpoint(ckpt);
      next_boundary += cadence;
    }
  }
  session.Stop();
  simulator.RunUntil(end);  // drain same-instant stop events, keep clock at end

  // --- final state: bound, correlate, report, digest ---
  core::CorrelatorInput input = session.BuildCorrelatorInput();
  outcome.shed = BoundInput(input, plan_.budget);
  const core::CrossLayerDataset data = core::Correlator::Correlate(input);
  outcome.packets_correlated = data.packets.size();
  outcome.events_executed = simulator.events_executed();

  std::ostringstream report;
  core::Report::Render(
      report,
      core::Report::Inputs{
          .dataset = &data,
          .qoe = &session.qoe(),
          .ran_counters =
              session.ran_uplink() ? &session.ran_uplink()->counters() : nullptr,
          .controller_target_bps = session.sender().controller().target_bps(),
      });
  if (plan_.report_appendix) plan_.report_appendix(report);
  outcome.report = report.str();

  StateDigest final_digest;
  final_digest.Mix(input);
  outcome.final_digest = final_digest.value();
  StateDigest report_digest;
  report_digest.Mix(outcome.report);
  outcome.report_digest = report_digest.value();
  return outcome;
}

}  // namespace athena::resilience
