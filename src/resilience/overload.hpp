// Bounded-memory overload control: hard byte budgets with priority-aware
// load shedding for the telemetry/trace pipelines.
//
// A continuous diagnosis service cannot let a telemetry flood grow its
// buffers without bound — but it also must not shed the records that
// correlation is built on. Tier 1 sits upstream of the governor: the
// ingest pipeline's ring (obs/pipeline/ring.hpp) sheds low-priority trace
// events (anything CriticalTraceEvent rejects) when it fills, and counts
// them in its own ledger. The governor bounds the correlator input, in
// priority order, lowest first:
//
//   2. ICMP probe records in the capture logs (clock-sync refinement,
//      not packet evidence),
//   3. padding-only TBs (used_bytes == 0 — they drain no packet bytes,
//      so correlation never needs them),
//   4. only then, as a last resort, a hard cap on the newest data
//      records — counted loudly as `capped`, because at that point the
//      budget is genuinely too small for the offered load.
//
// Every shed is counted in a ShedStats ledger, published as
// `resilience.shed.*` metrics, and surfaced to the live `overload`
// detector so degradation is *reported*, never silent (the PR-4
// contract).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/correlator.hpp"

namespace athena::resilience {

/// Byte budget; 0 = unbounded (the default — overload control is
/// strictly opt-in and costs nothing when disabled).
struct MemoryBudget {
  /// Correlator input streams: telemetry + the three capture logs.
  std::size_t input_bytes = 0;

  [[nodiscard]] bool any() const { return input_bytes > 0; }
};

/// The governor's ledger: what was shed, why, from where.
struct ShedStats {
  std::uint64_t icmp_shed = 0;             ///< probe records dropped (priority 2)
  std::uint64_t padding_tb_shed = 0;       ///< padding-only TBs dropped (priority 3)
  std::uint64_t telemetry_capped = 0;      ///< data TBs dropped by the hard cap
  std::uint64_t capture_capped = 0;        ///< capture records dropped by the hard cap

  [[nodiscard]] std::uint64_t total() const {
    return icmp_shed + padding_tb_shed + telemetry_capped + capture_capped;
  }
  /// The last-resort tier: nonzero means the budget was too small for
  /// even the high-priority load.
  [[nodiscard]] std::uint64_t capped() const {
    return telemetry_capped + capture_capped;
  }

  /// Publishes the ledger as `resilience.shed.*` counters/gauges into
  /// the installed MetricsRegistry (no-op when metrics are disabled).
  void PublishMetrics() const;
};

/// What the governor charges per capture record: a fixed price, not
/// `sizeof(net::CaptureRecord)`, so a byte budget (`--mem-budget`, the
/// chaos catalog's, BENCH_resilience.json's) sheds the same records
/// whatever the record's in-memory layout. Those budgets were set when a
/// record took 112 B.
inline constexpr std::size_t kCaptureRecordBudgetBytes = 112;

/// Approximate resident bytes of a correlator input (records × record
/// price; the governor's accounting unit).
[[nodiscard]] std::size_t InputBytes(const core::CorrelatorInput& input);

/// Enforces `budget.input_bytes` on `input` in the priority order above,
/// in place. Record order within each stream is preserved. Returns the
/// shed ledger (all zeros when the input already fits or the budget is
/// unbounded).
ShedStats BoundInput(core::CorrelatorInput& input, const MemoryBudget& budget);

}  // namespace athena::resilience
