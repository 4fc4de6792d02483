// Deterministic, replay-verified snapshots — one format for sessions
// and sharded worlds.
//
// Athena runs are pure functions of (config, seed): every random
// decision flows from seeded sim::Rng streams and virtual time, so an
// identical build replays to an identical state. A snapshot therefore
// does not carry state, it *witnesses* it: the run's identity (config
// fingerprint + seed), the virtual-time boundary it was taken at, an
// FNV-1a digest of the observable state there, and — for worlds — the
// pending mailbox reduced to canonical-order records. A session
// snapshot has an empty witness and serializes to 60 bytes whatever the
// run length.
//
// Restore is replay-based: a fresh run is rebuilt from the plan, replays
// from t=0 to the snapshot's boundary, and *verifies* the replayed
// digest (and witness) byte-for-byte before continuing — catching
// nondeterminism, config drift and version skew instead of silently
// diverging. (Serializing live event queues is impossible in general
// C++ — callbacks are closures — and unnecessary: determinism makes the
// reached state reproducible, and the digest makes the reproduction
// *checkable*.) A restored run therefore finishes byte-identical to an
// uninterrupted one; tests/resilience_test.cpp and
// tests/world_resilience_test.cpp pin that across seeds × kill points.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "resilience/overload.hpp"
#include "sim/time.hpp"
#include "world/mailbox.hpp"

namespace athena::obs {
class TraceSink;
}  // namespace athena::obs

namespace athena::resilience {

/// A malformed, truncated, corrupted, mismatched or unverifiable
/// snapshot. Always a diagnostic, never UB: loading validates the magic,
/// checksum, version and record count before any field is trusted.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Rolling FNV-1a digest over the fields the pipeline consumes — the
/// byte-identity witness for checkpoint verification and final-report
/// comparison. (Deliberately self-contained: fault::InputDigest lives a
/// dependency level above this library.)
class StateDigest {
 public:
  void Mix(std::uint64_t v);
  void Mix(std::string_view s);
  void Mix(const std::vector<ran::TbRecord>& records);
  void Mix(const std::vector<net::CaptureRecord>& records);
  void Mix(const core::CorrelatorInput& input);

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

/// Digest of the SessionConfig fields that shape a run's behaviour, plus
/// the planned run length. A checkpoint taken under one plan refuses to
/// restore under another (the replay would silently diverge otherwise).
[[nodiscard]] std::uint64_t ConfigFingerprint(const app::SessionConfig& config,
                                              sim::Duration duration);

/// One snapshot of a session or a world at a virtual-time boundary.
struct Checkpoint {
  static constexpr std::uint32_t kVersion = 2;

  // --- identity ---
  std::uint64_t config_fingerprint = 0;  ///< ConfigFingerprint / WorldConfigFingerprint
  std::uint64_t seed = 0;

  // --- boundary ---
  sim::TimePoint virtual_time;  ///< the snapshot was taken here

  // --- witness ---
  /// Session: StateDigest over the correlator input collected so far.
  /// World: engine.Digest() over every shard's deterministic state.
  std::uint64_t state_digest = 0;
  /// World only: every pending mailbox message, canonical (arrival, src,
  /// seq) order. Empty for sessions.
  std::vector<world::WorldMsgRecord> mailbox;

  /// Serializes to the versioned binary format (magic + header + mailbox
  /// records + trailing FNV-1a checksum), little-endian byte-by-byte.
  void Serialize(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t SerializedBytes() const;
  void WriteFile(const std::string& path) const;

  /// Parses and validates a serialized snapshot. Throws CheckpointError
  /// with a diagnostic on bad magic, unsupported version, truncation, a
  /// checksum mismatch or a record count the payload cannot hold — never
  /// returns garbage.
  [[nodiscard]] static Checkpoint Deserialize(const std::uint8_t* data, std::size_t size);
  [[nodiscard]] static Checkpoint LoadFile(const std::string& path);
};

/// Everything a checkpointing run needs to be reproducible. The plan is
/// the unit of identity: the same plan always produces the same outcome,
/// checkpoints included.
struct RunPlan {
  app::SessionConfig config;
  sim::Duration duration{std::chrono::seconds{2}};

  /// Virtual-time checkpoint cadence; 0 disables periodic snapshots.
  sim::Duration checkpoint_every{0};

  /// Byte budgets for the overload governor; default = unbounded.
  MemoryBudget budget;

  /// Invoked (on the driving thread) each time a checkpoint is taken —
  /// the supervisor keeps the latest for crash recovery, the CLI spills
  /// it to disk. Observability only: must not mutate the run.
  std::function<void(const Checkpoint&)> on_checkpoint;

  /// Invoked once per Run()/Resume() with the freshly built simulator,
  /// before any event executes. The supervisor installs its crash-point
  /// and watchdog hooks here; tests plant livelock bombs. The callee must
  /// not advance the simulator.
  std::function<void(sim::Simulator&)> on_simulator;

  /// Invoked once per Run()/Resume() after the session is constructed
  /// (and after on_simulator), before Start(). The mitigation control
  /// plane binds its per-attempt state here — each supervisor restart
  /// gets a fresh controller whose replay-from-zero reproduces the same
  /// decision ledger. Must not advance the simulator.
  std::function<void(sim::Simulator&, app::Session&)> on_session;

  /// When non-null, installed as the current thread's trace sink for the
  /// whole Drive (session construction through teardown). The pointer
  /// must stay valid across the run; ownership stays with the caller.
  obs::TraceSink* trace_sink = nullptr;

  /// Appended to the rendered report before the report digest is taken —
  /// extra per-run text (the mitigation decision ledger) joins the
  /// byte-identity surface the restore tests pin.
  std::function<void(std::ostream&)> report_appendix;
};

/// What a completed run produced. `final_digest`/`report` are the
/// byte-identity surface the restore tests pin.
struct RunOutcome {
  std::uint64_t final_digest = 0;   ///< StateDigest over the final correlator input
  std::uint64_t report_digest = 0;  ///< FNV over the rendered report text
  std::string report;               ///< the full rendered core::Report
  std::uint64_t events_executed = 0;
  std::size_t packets_correlated = 0;
  std::size_t checkpoints_taken = 0;
  std::size_t last_checkpoint_bytes = 0;
  bool restored = false;            ///< this outcome came through Resume()
  ShedStats shed;                   ///< overload-governor ledger for the run
};

/// Drives one session to completion in checkpoint-cadence slices.
/// Stateless between calls: each Run()/Resume() builds a fresh
/// Simulator + Session, so a driver can be re-invoked after a crash.
class CheckpointingDriver {
 public:
  explicit CheckpointingDriver(RunPlan plan);

  /// Uninterrupted run from t=0, snapshotting at the plan's cadence.
  [[nodiscard]] RunOutcome Run();

  /// Restore: validates `ckpt` against the plan (ValidateRestore),
  /// replays a fresh session to the checkpoint's virtual time, verifies
  /// the replayed state digest (CheckpointError on mismatch, naming the
  /// boundary and both digests), then continues to the end.
  [[nodiscard]] RunOutcome Resume(const Checkpoint& ckpt);

  [[nodiscard]] const RunPlan& plan() const { return plan_; }

 private:
  RunOutcome Drive(const Checkpoint* resume_from);

  RunPlan plan_;
};

/// Throws CheckpointError unless `ckpt` was taken by the run with this
/// config fingerprint and seed: replaying it elsewhere would silently
/// diverge.
void ValidateIdentity(const Checkpoint& ckpt, std::uint64_t fingerprint, std::uint64_t seed);

/// ValidateIdentity against a session plan, plus a boundary within the
/// planned duration. Resume and Supervisor::RunFrom both run it before
/// anything is replayed.
void ValidateRestore(const RunPlan& plan, const Checkpoint& ckpt);

/// Builds a Checkpoint from a live session at its current virtual time.
[[nodiscard]] Checkpoint SnapshotSession(const sim::Simulator& sim,
                                         const app::Session& session,
                                         const RunPlan& plan);

}  // namespace athena::resilience
