// The world's cell abstraction.
//
// A Cell is an Entity that owns a radio-access model for the UEs
// currently attached to it. The stock implementation (`MakeNrCell`)
// wraps `ran::MultiUeUplink` — the one uplink scheduler, which a
// session's `ran::RanUplink` runs with a single UE — here with a
// contending population. EXTENDING.md describes how to add other cell
// types (Wi-Fi AP, satellite beam, …): implement this interface, keep
// the mailbox choreography, and the engine, digest, handover and fleet
// machinery work unchanged.
//
// Mailbox choreography a Cell must honour:
//   kUplink    → enqueue msg.pkt into msg.ue's radio buffer.
//   kDetach    → detach msg.ue, post kTransfer{radio} to msg.target_cell
//                with arrival now + max(lookahead, handover_latency).
//   kTransfer  → attach the carried radio state, post kAttached to the
//                UE's session (entity id == ue id) at now + lookahead.
//   decode     → post kCoreDelivery to the session at
//                now + max(lookahead, gNB→core delay).
// Every posted arrival must be ≥ now + ctx.lookahead — that is the
// engine's conservative-execution contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ran/config.hpp"
#include "ran/multi_ue.hpp"
#include "ran/types.hpp"
#include "sim/simulator.hpp"
#include "world/mailbox.hpp"

namespace athena::world {

class Cell : public Entity {
 public:
  /// Engine-provided wiring. `post` routes a WorldMsg to its dst shard;
  /// it is only safe to call from this cell's own shard (i.e. from
  /// simulator events and OnMessage).
  struct Context {
    sim::Simulator* sim = nullptr;
    EntityId id = 0;  ///< this cell's entity id (U + cell index)
    std::function<void(WorldMsg&&)> post;
    sim::Duration lookahead{std::chrono::milliseconds{1}};
    sim::Duration handover_latency{std::chrono::milliseconds{20}};
  };

  virtual void Start() = 0;
  virtual void Stop() = 0;

  /// Pre-run attach (engine setup, before the first window).
  virtual void AttachInitial(std::uint32_t ue, ran::UeRadioState state) = 0;

  /// Cell-wide outage window (chaos).
  virtual void SetOutage(sim::TimePoint start, sim::TimePoint end) = 0;

  // --- end-of-run inspection ---
  [[nodiscard]] virtual std::vector<std::uint32_t> AttachedUes() const = 0;
  [[nodiscard]] virtual const ran::UeRadioState* FindUe(std::uint32_t ue) const = 0;
  [[nodiscard]] virtual const ran::RanCounters& counters() const = 0;
  [[nodiscard]] virtual std::uint64_t slots_run() const = 0;

  /// Appends this cell's deterministic state words to the world digest
  /// (integers only — the digest must be bit-stable across platforms).
  virtual void AppendDigest(std::vector<std::uint64_t>& out) const = 0;
};

/// The stock 5G cell: `ran::MultiUeUplink` with the shared BSR grant
/// policy, no cross traffic and no ground-truth records, slot clock on
/// the epoch-aligned UL grid.
[[nodiscard]] std::unique_ptr<Cell> MakeNrCell(Cell::Context ctx, ran::RanConfig config);

}  // namespace athena::world
