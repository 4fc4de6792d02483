#include "resilience/overload.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"

namespace athena::resilience {

void ShedStats::PublishMetrics() const {
  if (!obs::metrics_enabled()) return;
  obs::SetGauge("resilience.shed.icmp", static_cast<double>(icmp_shed));
  obs::SetGauge("resilience.shed.padding_tb", static_cast<double>(padding_tb_shed));
  obs::SetGauge("resilience.shed.telemetry_capped", static_cast<double>(telemetry_capped));
  obs::SetGauge("resilience.shed.capture_capped", static_cast<double>(capture_capped));
  obs::SetGauge("resilience.shed.total", static_cast<double>(total()));
}

std::size_t InputBytes(const core::CorrelatorInput& input) {
  return input.telemetry.size() * sizeof(ran::TbRecord) +
         (input.sender.size() + input.core.size() + input.receiver.size()) *
             kCaptureRecordBudgetBytes;
}

namespace {

/// Erase-if preserving order, returning how many were removed.
template <typename Record, typename Pred>
std::uint64_t ShedWhere(std::vector<Record>& records, Pred pred) {
  const auto it = std::remove_if(records.begin(), records.end(), pred);
  const auto removed = static_cast<std::uint64_t>(records.end() - it);
  records.erase(it, records.end());
  return removed;
}

/// Hard cap: drop the newest records (the tail) so the stream keeps its
/// contiguous history from t=0 — a truncated-but-coherent record beats a
/// full-length one with holes.
template <typename Record>
std::uint64_t CapTail(std::vector<Record>& records, std::size_t keep) {
  if (records.size() <= keep) return 0;
  const auto dropped = static_cast<std::uint64_t>(records.size() - keep);
  records.resize(keep);
  return dropped;
}

}  // namespace

ShedStats BoundInput(core::CorrelatorInput& input, const MemoryBudget& budget) {
  ShedStats stats;
  if (budget.input_bytes == 0) return stats;

  // Priority 2: ICMP probe records. The correlator matches packets to
  // TBs; ICMP echoes never cross the RAN, so they are refinement, not
  // evidence.
  if (InputBytes(input) > budget.input_bytes) {
    for (auto* stream : {&input.sender, &input.core, &input.receiver}) {
      stats.icmp_shed += ShedWhere(
          *stream, [](const net::CaptureRecord& r) { return r.icmp() != nullptr; });
    }
  }

  // Priority 3: padding-only TBs — they carried zero RLC payload, so the
  // byte-conservation replay never drains a packet through them.
  if (InputBytes(input) > budget.input_bytes) {
    stats.padding_tb_shed += ShedWhere(input.telemetry, [](const ran::TbRecord& r) {
      return r.used_bytes == 0;
    });
  }

  // Last resort: hard-cap every stream proportionally to its share of
  // the remaining bytes. This drops data records — counted as `capped`,
  // the loudest tier of the ledger.
  std::size_t bytes = InputBytes(input);
  if (bytes > budget.input_bytes) {
    const double scale = static_cast<double>(budget.input_bytes) / static_cast<double>(bytes);
    stats.telemetry_capped += CapTail(
        input.telemetry,
        static_cast<std::size_t>(static_cast<double>(input.telemetry.size()) * scale));
    for (auto* stream : {&input.sender, &input.core, &input.receiver}) {
      stats.capture_capped += CapTail(
          *stream,
          static_cast<std::size_t>(static_cast<double>(stream->size()) * scale));
    }
  }

  stats.PublishMetrics();
  return stats;
}

}  // namespace athena::resilience
