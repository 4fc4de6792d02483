// Windowed world checkpoints for the sharded multi-cell engine.
//
// A world snapshot is a resilience::Checkpoint (checkpoint.hpp) taken at
// a conservative window boundary: every shard's deterministic state
// folded into one digest, plus every pending mailbox/exchange message
// reduced to its canonical-order record as the witness. Restore replays
// a fresh engine through windows 1..k and verifies — byte-for-byte on
// both the state digest and the canonical mailbox records — that the
// replay reproduced the exact pre-crash world before it continues. The
// window index k is not stored: it follows from the snapshot's virtual
// time and the config's WindowSchedule. A snapshot is layout-invariant:
// taken at 8 threaded shards, it restores a 1-shard sequential run (and
// vice versa), because nothing in it names a shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/checkpoint.hpp"
#include "world/config.hpp"
#include "world/engine.hpp"
#include "world/mailbox.hpp"

namespace athena::resilience {

/// Digest of the WorldConfig fields that shape the simulation. Layout
/// knobs (shards, threaded, correlate_jobs, pipeline) and fault-injection
/// knobs (crash point, quarantines) are deliberately excluded: the world
/// digest is layout-invariant, and a supervisor must be able to restore
/// a pre-fault snapshot under an updated fault plan — the replayed state
/// digest, not the fingerprint, is what catches behavioural divergence.
[[nodiscard]] std::uint64_t WorldConfigFingerprint(const world::WorldConfig& config);

/// Builds a snapshot from a live engine at window boundary `window`.
/// Call only where the engine guarantees quiescence: from a window hook
/// (all shards parked at the barrier) or after Run() returns.
[[nodiscard]] Checkpoint SnapshotWorld(const world::WorldEngine& engine,
                                       std::uint64_t window);

/// The 1-based window boundary a snapshot was taken at under `config`.
/// Throws CheckpointError when its virtual time is not an interior
/// window boundary of that config's run.
[[nodiscard]] std::uint64_t SnapshotWindow(const world::WorldConfig& config,
                                           const Checkpoint& snapshot);

/// Explains how a replayed boundary differs from a snapshot — digest
/// mismatch, mailbox length skew, or the first diverging record — for
/// CheckpointError diagnostics.
[[nodiscard]] std::string DescribeWorldDivergence(
    const Checkpoint& expected, std::uint64_t window, std::uint64_t replayed_digest,
    const std::vector<world::WorldMsgRecord>& replayed_mailbox);

}  // namespace athena::resilience
