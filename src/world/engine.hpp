// The sharded multi-cell world engine.
//
// Partitions a U-session, C-cell world across S shards, each with its
// own `sim::Simulator`, and advances them under a conservative
// (CMB-style) time-sync barrier:
//
//   lookahead L  = config.link_latency (the minimum cross-entity hop)
//   window k     = virtual time (W_{k-1}, W_k], W_k = k·L
//
// Because every cross-entity message travels ≥ L, a message posted in
// window k can only be due in window k+1 or later — so each shard can
// run a whole window without hearing from the others. Per window, each
// shard worker:
//
//   1. pulls due inbound messages (arrival ≤ W_k) from its pending set,
//      sorts them by the canonical (arrival, src, seq) order, and
//      schedules them as simulator events at their arrival times;
//   2. runs its simulator to W_k (entities post outbound messages into
//      the shard's per-destination outbox);
//   3. publishes its outbox into the global exchange  — barrier —
//   4. collects its inbound column from the exchange  — barrier —
//
// Determinism across layouts (the world digest is byte-identical at
// shards 1/2/8, threaded or sequential) rests on three facts: entities
// share no state, per-shard event queues break same-time ties FIFO by
// insertion order, and the canonical inbound sort erases any trace of
// which physical route a message took. The sequential mode runs the
// *same* window loop round-robin on one thread; it exists for clean
// busy-time measurement and as the determinism oracle.
//
// `BusyRecorder` captures per-shard per-window busy seconds, from which
// the result reports both measured wall time and the modeled critical
// path Σ_k max_s busy(s, k) — the wall time an S-core machine would see
// (bench_world uses this to demonstrate scaling honestly on any host).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/fleet/report.hpp"
#include "sim/barrier.hpp"
#include "sim/check.hpp"
#include "world/cell.hpp"
#include "world/config.hpp"
#include "world/mailbox.hpp"
#include "world/ue_session.hpp"

namespace athena::world {

/// A shard worker died mid-run (deterministic crash injection via
/// WorldConfig::crash_shard). In threaded mode the surviving workers
/// keep the barrier protocol alive and the engine rethrows this after
/// join — the supervisor's cue to restore from the latest snapshot.
class ShardCrash : public sim::InjectedCrash {
 public:
  using sim::InjectedCrash::InjectedCrash;
};

struct WorldResult {
  /// FNV-1a over every session's and cell's deterministic state words,
  /// in entity-id order. Pure simulation state — byte-identical across
  /// shard counts and threading modes for a given (config, seed).
  std::uint64_t digest = 0;

  /// The population FleetReport (deterministic bytes via WriteJson).
  obs::fleet::FleetReport report;
  std::string fleet_json;

  // --- timing ---
  double wall_seconds = 0.0;           ///< measured, this host
  double busy_seconds = 0.0;           ///< Σ per-shard per-window busy
  double critical_path_seconds = 0.0;  ///< Σ_k max_s busy — modeled S-core wall
  std::size_t shards = 0;
  std::size_t windows = 0;
  bool threaded = false;

  // --- volume ---
  std::uint64_t events_executed = 0;    ///< across all shard simulators
  std::uint64_t messages_delivered = 0; ///< mailbox msgs delivered to entities
  std::uint64_t handovers = 0;          ///< completed UE migrations

  // --- conservation ledger (population totals) ---
  std::uint64_t offered = 0;    ///< packets entering RLC buffers
  std::uint64_t delivered = 0;  ///< packets fully decoded at a cell
  std::uint64_t lost = 0;       ///< HARQ-chain + handover drops
  std::uint64_t in_flight = 0;  ///< mid-transmission at end of run
  std::uint64_t in_transit_uplink = 0;    ///< mailbox msgs not yet at a cell
  std::uint64_t in_transit_delivery = 0;  ///< decoded msgs not yet at the core
  bool conservation_ok = false;
  /// Empty when conservation_ok; otherwise the first violated invariant.
  std::string conservation_error;

  // --- quarantine (populated when WorldConfig::quarantines is set) ---
  std::vector<std::size_t> quarantined_cells;
  std::uint64_t evacuated = 0;  ///< forced handovers completed off quarantined cells
  std::uint64_t stranded = 0;   ///< UEs left on a quarantined cell (no time to move)
};

class WorldEngine {
 public:
  explicit WorldEngine(WorldConfig config);
  ~WorldEngine();

  WorldEngine(const WorldEngine&) = delete;
  WorldEngine& operator=(const WorldEngine&) = delete;

  /// Runs the world once (one engine = one run).
  [[nodiscard]] WorldResult Run();

  [[nodiscard]] const WorldConfig& config() const { return config_; }

  /// Window-boundary observer, invoked as `hook(k)` after window k's
  /// collect barrier with every shard parked (worker 0 runs it in
  /// threaded mode, the driving thread in sequential mode). The hook may
  /// read the boundary introspection below; an exception it throws
  /// aborts the run exactly like a shard crash. Install before Run().
  void set_window_hook(std::function<void(std::uint64_t)> hook) {
    window_hook_ = std::move(hook);
  }

  // --- window-boundary introspection (hook context or post-run only) ---

  /// FNV-1a over every session's and cell's deterministic state words —
  /// the same digest Run() reports, computable at any barrier.
  [[nodiscard]] std::uint64_t Digest() const { return ComputeDigest(); }

  /// Every pending (posted, not yet delivered) mailbox message across
  /// all shards, reduced to records in the canonical (arrival, src, seq)
  /// order. Layout-invariant: the physical shard holding a message never
  /// shows through.
  [[nodiscard]] std::vector<WorldMsgRecord> PendingMailRecords() const;

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

 private:
  struct Shard;

  [[nodiscard]] Entity* EntityFor(EntityId id);
  void Build();
  void RunShardWindow(std::size_t s, std::uint64_t window, sim::TimePoint window_end);
  void SweepQuarantined(std::size_t s, sim::TimePoint window_end);
  void Publish(std::size_t s);
  void Collect(std::size_t s);
  void RunSequential(const sim::WindowSchedule& schedule, sim::BusyRecorder& busy);
  void RunThreaded(const sim::WindowSchedule& schedule, sim::BusyRecorder& busy);
  void CheckConservation(WorldResult& result);
  [[nodiscard]] std::uint64_t ComputeDigest() const;
  void BuildFleet(WorldResult& result);

  WorldConfig config_;
  std::size_t shard_count_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// exchange_[src][dst]: published outboxes awaiting collection.
  std::vector<std::vector<std::vector<WorldMsg>>> exchange_;
  std::vector<std::uint16_t> shard_of_;  ///< entity id → shard
  std::vector<std::unique_ptr<UeSession>> sessions_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<EntityId> initial_cell_;  ///< per UE (fleet scenario key)
  std::function<void(std::uint64_t)> window_hook_;
  /// Per-cell quarantine activation time (µs); kNeverQuarantined = none.
  static constexpr std::int64_t kNeverQuarantined =
      std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> quarantine_at_us_;
  std::int64_t earliest_quarantine_us_ = kNeverQuarantined;
  std::size_t crash_shard_ = WorldConfig::kNoCrash;  ///< clamped to the layout
  bool ran_ = false;
};

}  // namespace athena::world
