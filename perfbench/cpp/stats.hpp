// Derived-metric arithmetic of the benchmark: order statistics over a
// run's repetitions, the tail-percentile rule, the world engine's
// barrier/imbalance/efficiency split and the telemetry shed share.
// Everything here is a pure function, covered by tests/stats_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/pipeline/ring.hpp"
#include "world/engine.hpp"

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
[[nodiscard]] double Median(std::vector<double> samples);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method), so the benchmark's own spread and
/// the one computed over its JSON results agree. Needs >= 2 samples;
/// with fewer, every field is the lone sample (or 0).
[[nodiscard]] Quartiles QuartilesOf(std::vector<double> samples);

/// (q3 - q1) / median, the run-to-run spread the bounds are judged on.
[[nodiscard]] double RelativeSpread(const Quartiles& q);

struct TailPercentile {
  double percentile = 0.0;   ///< e.g. 90.0
  double value = 0.0;        ///< nearest-rank value at that percentile
  std::size_t beyond = 0;    ///< samples strictly above the rank
};

/// The highest percentile of {50, 90, 95, 99, 99.9, 99.99} that leaves at
/// least ten samples beyond it; nullopt when even the median does not
/// (fewer than 20 samples).
[[nodiscard]] std::optional<TailPercentile> HighestTailPercentile(std::vector<double> samples);

/// Shard-time split of one world run. `loop_s` is the engine's own
/// window-loop wall time (WorldResult::wall_seconds).
struct WorldSplit {
  double loop_s = 0.0;
  double barrier_wait_s = 0.0;  ///< shards * loop - busy
  double imbalance = 0.0;       ///< shards * critical_path / busy
  double parallel_eff = 0.0;    ///< busy / (shards * loop)
};
[[nodiscard]] WorldSplit SplitWorld(const athena::world::WorldResult& result);

/// Events offered to a ring shard: accepted plus shed.
[[nodiscard]] std::uint64_t Offered(const athena::obs::pipeline::RingStats& stats);
/// Shed events / offered events (0 when nothing was offered).
[[nodiscard]] double FailFrac(const athena::obs::pipeline::RingStats& stats);

/// Sum of per-task wall time / (jobs * wall time of the whole fan-out).
[[nodiscard]] double ParallelEfficiency(double task_seconds_sum, unsigned jobs,
                                        double map_seconds);

/// 64-bit FNV-1a, the digest every pinned output is compared by.
[[nodiscard]] std::uint64_t Fnv1a(std::string_view bytes);

}  // namespace perfbench
