// Online time-bucketed rollups: the streaming downsampler that keeps
// long-horizon telemetry O(buckets) instead of O(events).
//
// Every event folds into one fixed-width virtual-time bucket of one
// series (a series is a (name, layer) pair), carrying a scalar value:
// counter events their sampled value, complete spans their duration in
// ms, everything else its first numeric arg (or 1.0 — a pure
// occurrence). Per bucket the rollup keeps count/sum/min/max plus a
// fixed-size log-domain quantile sketch, so p50/p99 survive aggregation
// without retaining samples — the AtlasRAN lesson: per-event fidelity
// must degrade *predictably* (bounded relative error), not arbitrarily.
//
// Two structural guarantees:
//   - Bounded memory for unbounded horizons: when a series would exceed
//     `max_buckets`, the bucket width doubles and adjacent pairs fold
//     together (sketches merge exactly), so a 10×-longer run costs zero
//     extra resident bytes — the property BENCH_telemetry pins.
//   - Order-insensitive folds: every accumulator is commutative, so the
//     collector may interleave shards arbitrarily and a sweep's rollups
//     merge into deterministic population aggregates regardless of job
//     count.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace athena::obs::pipeline {

/// Fixed-footprint quantile sketch over non-negative values: 128 log2-
/// domain buckets, 4 sub-buckets per octave, covering [2^-8, 2^24) with
/// ≤ ~19% relative error (2^(1/4)); zeros and out-of-range values land
/// in pinned edge buckets. Mergeable by bucket-wise addition — the
/// population-CDF primitive.
class QuantileSketch {
 public:
  static constexpr int kSubBuckets = 4;       // per octave
  static constexpr int kMinExponent = -8;     // 2^-8 ≈ 0.004
  static constexpr int kOctaves = 32;         // up to 2^24 ≈ 16.7M
  static constexpr std::size_t kBuckets = kOctaves * kSubBuckets;

  void Add(double v, std::uint64_t weight = 1);
  void Merge(const QuantileSketch& other);

  /// Inverse CDF at q ∈ [0, 1] (geometric bucket midpoint). 0 when empty.
  [[nodiscard]] double Quantile(double q) const;

  /// Estimated number of recorded values ≤ x: full buckets below x plus a
  /// linear fraction of the straddling bucket. Deterministic, monotone in
  /// x — the SLO engine's "good samples" primitive. 0 when empty or x < 0.
  [[nodiscard]] double CountAtOrBelow(double x) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] const std::array<std::uint32_t, kBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::array<std::uint32_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// One bucket's accumulators. All operations commutative + associative.
struct RollupBucket {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  QuantileSketch sketch;

  void Add(double v);
  void Merge(const RollupBucket& other);
};

/// A series key: which event stream, on which layer.
struct SeriesKey {
  NameId name = kEmptyNameId;
  Layer layer = Layer::kOther;

  auto operator<=>(const SeriesKey&) const = default;
};

class TimeBucketRollup final : public TraceSink {
 public:
  struct Options {
    sim::Duration bucket_width{std::chrono::milliseconds{100}};
    /// Per-series bucket cap; crossing it doubles the width and folds
    /// pairs. Power of two keeps folds exact.
    std::size_t max_buckets = 4096;
  };

  TimeBucketRollup() : TimeBucketRollup(Options{}) {}
  explicit TimeBucketRollup(Options options);

  // The series index points into series_: a copy would alias the
  // source's nodes.
  TimeBucketRollup(const TimeBucketRollup&) = delete;
  TimeBucketRollup& operator=(const TimeBucketRollup&) = delete;

  void Emit(const TraceEvent& event) override;
  void EmitBatch(const TraceEvent* events, std::size_t count) override;

  /// Folds `other` into this rollup (population aggregation across runs
  /// or shards). Widths reconcile by doubling the narrower side.
  void Merge(const TimeBucketRollup& other);

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::uint64_t events_folded() const { return events_folded_; }
  [[nodiscard]] sim::Duration bucket_width() const { return options_.bucket_width; }
  /// Total width-doubling folds performed (bounded-horizon telemetry).
  [[nodiscard]] std::uint64_t rescales() const { return rescales_; }

  /// Whole-series aggregate (all buckets merged): the population CDF for
  /// one series. Returns an empty bucket when the series is unknown.
  [[nodiscard]] RollupBucket SeriesAggregate(SeriesKey key) const;
  [[nodiscard]] RollupBucket SeriesAggregate(std::string_view name, Layer layer) const;

  struct Series {
    sim::Duration width{0};         ///< this series' current bucket width
    std::vector<RollupBucket> buckets;
  };
  [[nodiscard]] const std::map<SeriesKey, Series>& series() const { return series_; }

  /// One JSON object: per series, the width, bucket array (t, count,
  /// sum, min, max, p50, p99) and the whole-series aggregate.
  void WriteJson(std::ostream& os) const;

  /// Long-form CSV: series,layer,bucket_start_ms,count,sum,min,max,p50,p99.
  void WriteCsv(std::ostream& os) const;

  /// Resident footprint estimate (series × buckets × sizeof bucket).
  [[nodiscard]] std::size_t MemoryBytes() const;

 private:
  Series& SeriesFor(SeriesKey key);
  void Fold(Series& s, sim::TimePoint ts, double value);
  static void Halve(Series& s);

  Options options_;
  std::map<SeriesKey, Series> series_;
  /// Flat index in front of series_, by name * kLayerCount + layer: the
  /// per-event lookup is one load. Map nodes never move, and every
  /// output still walks series_ in key order.
  std::vector<Series*> index_;
  std::uint64_t events_folded_ = 0;
  std::uint64_t rescales_ = 0;
};

}  // namespace athena::obs::pipeline
