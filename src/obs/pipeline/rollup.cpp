#include "obs/pipeline/rollup.hpp"

#include <cmath>
#include <ostream>

#include "obs/trace_json.hpp"
#include "sim/check.hpp"

namespace athena::obs::pipeline {

// --- QuantileSketch ---

namespace {

/// Bucket index for v: octave from the binary exponent, sub-bucket from
/// the mantissa's top bits. Clamped to the sketch's range.
std::size_t BucketIndex(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;  // zeros/negatives/NaN pin low
  int exponent;
  const double mantissa = std::frexp(v, &exponent);  // v = mantissa * 2^exp, m ∈ [0.5, 1)
  // Octave relative to kMinExponent; frexp's exponent is one above the
  // floor-log2 for mantissa in [0.5, 1).
  int octave = (exponent - 1) - QuantileSketch::kMinExponent;
  if (octave < 0) return 0;
  if (octave >= QuantileSketch::kOctaves) return QuantileSketch::kBuckets - 1;
  const int sub = static_cast<int>((mantissa - 0.5) * 2.0 * QuantileSketch::kSubBuckets);
  const int clamped_sub =
      sub >= QuantileSketch::kSubBuckets ? QuantileSketch::kSubBuckets - 1 : sub;
  return static_cast<std::size_t>(octave) * QuantileSketch::kSubBuckets +
         static_cast<std::size_t>(clamped_sub);
}

/// Lower edge of bucket i's value range.
double BucketLow(std::size_t i) {
  const auto octave = static_cast<int>(i) / QuantileSketch::kSubBuckets;
  const auto sub = static_cast<int>(i) % QuantileSketch::kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / QuantileSketch::kSubBuckets,
                    octave + QuantileSketch::kMinExponent);
}

/// Upper edge of bucket i's value range (== BucketLow(i + 1) in-range).
double BucketHigh(std::size_t i) {
  const auto octave = static_cast<int>(i) / QuantileSketch::kSubBuckets;
  const auto sub = static_cast<int>(i) % QuantileSketch::kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / QuantileSketch::kSubBuckets,
                    octave + QuantileSketch::kMinExponent);
}

/// Geometric midpoint of bucket i — the value a quantile query reports.
double BucketMid(std::size_t i) { return std::sqrt(BucketLow(i) * BucketHigh(i)); }

}  // namespace

void QuantileSketch::Add(double v, std::uint64_t weight) {
  buckets_[BucketIndex(v)] += static_cast<std::uint32_t>(weight);
  count_ += weight;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return i == 0 ? 0.0 : BucketMid(i);
  }
  return BucketMid(kBuckets - 1);
}

double QuantileSketch::CountAtOrBelow(double x) const {
  if (count_ == 0 || x < 0.0 || !std::isfinite(x)) return 0.0;
  const std::size_t idx = BucketIndex(x);
  double n = 0.0;
  for (std::size_t i = 0; i < idx; ++i) n += buckets_[i];
  if (idx == 0) {
    // The pinned low bucket holds zeros and sub-range values; any x ≥ 0
    // landing here dominates them all.
    n += buckets_[0];
  } else {
    const double lo = BucketLow(idx);
    const double hi = BucketHigh(idx);
    double frac = hi > lo ? (x - lo) / (hi - lo) : 1.0;
    if (frac < 0.0) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
    n += frac * buckets_[idx];
  }
  return n;
}

// --- RollupBucket ---

void RollupBucket::Add(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
  sketch.Add(v);
}

void RollupBucket::Merge(const RollupBucket& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
  count += other.count;
  sum += other.sum;
  sketch.Merge(other.sketch);
}

// --- TimeBucketRollup ---

TimeBucketRollup::TimeBucketRollup(Options options) : options_(options) {
  ATHENA_CHECK(options_.bucket_width.count() > 0, "bucket width must be positive");
  ATHENA_CHECK(options_.max_buckets >= 2, "need at least two buckets");
  // Pair-folding needs an even cap to stay exact.
  if (options_.max_buckets % 2 != 0) ++options_.max_buckets;
}

TimeBucketRollup::Series& TimeBucketRollup::SeriesFor(SeriesKey key) {
  const auto layer = static_cast<std::size_t>(key.layer);
  const std::size_t slot = static_cast<std::size_t>(key.name) * kLayerCount + layer;
  const bool indexed = layer < kLayerCount;
  if (indexed && slot < index_.size() && index_[slot] != nullptr) return *index_[slot];
  auto [it, inserted] = series_.try_emplace(key);
  if (inserted) it->second.width = options_.bucket_width;
  if (!indexed) return it->second;
  if (slot >= index_.size()) {
    // Registry ids are dense, so the index tracks the registry's size; a
    // name past the registry stays map-only rather than sizing the index.
    const std::size_t known = TraceNameRegistry::Instance().size();
    if (key.name >= known) return it->second;
    index_.resize(known * kLayerCount, nullptr);
  }
  index_[slot] = &it->second;
  return it->second;
}

void TimeBucketRollup::Halve(Series& s) {
  const std::size_t n = s.buckets.size();
  std::vector<RollupBucket> folded((n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    folded[i / 2].Merge(s.buckets[i]);
  }
  s.buckets = std::move(folded);
  s.width *= 2;
}

void TimeBucketRollup::Fold(Series& s, sim::TimePoint ts, double value) {
  std::int64_t us = ts.us();
  if (us < 0) us = 0;  // pre-epoch clock-fault events pin to bucket 0
  auto index = static_cast<std::size_t>(us / s.width.count());
  while (index >= options_.max_buckets) {
    Halve(s);
    ++rescales_;
    index = static_cast<std::size_t>(us / s.width.count());
  }
  if (index >= s.buckets.size()) s.buckets.resize(index + 1);
  s.buckets[index].Add(value);
}

void TimeBucketRollup::Emit(const TraceEvent& event) {
  double value;
  switch (event.phase) {
    case TraceEvent::Phase::kCounter:
      value = event.arg_count > 0 ? event.args[0].value : 0.0;
      break;
    case TraceEvent::Phase::kComplete:
      value = static_cast<double>(event.dur.count()) / 1e3;  // ms
      break;
    default:
      value = event.arg_count > 0 ? event.args[0].value : 1.0;
      break;
  }
  Fold(SeriesFor({event.name, event.layer}), event.ts, value);
  ++events_folded_;
}

void TimeBucketRollup::EmitBatch(const TraceEvent* events, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) Emit(events[i]);
}

void TimeBucketRollup::Merge(const TimeBucketRollup& other) {
  for (const auto& [key, theirs] : other.series_) {
    Series& ours = SeriesFor(key);
    if (ours.buckets.empty()) ours.width = theirs.width;
    // Reconcile widths by doubling the finer side — folds stay exact
    // because widths are the base width times a power of two.
    Series copy;
    const Series* src = &theirs;
    if (theirs.width != ours.width) {
      copy = theirs;
      while (copy.width < ours.width) Halve(copy);
      while (ours.width < copy.width) {
        Halve(ours);
        ++rescales_;
      }
      src = &copy;
    }
    if (src->buckets.size() > ours.buckets.size()) {
      ours.buckets.resize(src->buckets.size());
    }
    for (std::size_t i = 0; i < src->buckets.size(); ++i) {
      ours.buckets[i].Merge(src->buckets[i]);
    }
    while (ours.buckets.size() > options_.max_buckets) {
      Halve(ours);
      ++rescales_;
    }
  }
  events_folded_ += other.events_folded_;
}

RollupBucket TimeBucketRollup::SeriesAggregate(SeriesKey key) const {
  RollupBucket total;
  const auto it = series_.find(key);
  if (it == series_.end()) return total;
  for (const RollupBucket& b : it->second.buckets) total.Merge(b);
  return total;
}

RollupBucket TimeBucketRollup::SeriesAggregate(std::string_view name,
                                               Layer layer) const {
  return SeriesAggregate(
      SeriesKey{TraceNameRegistry::Instance().Intern(name), layer});
}

std::size_t TimeBucketRollup::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, s] : series_) {
    bytes += sizeof(SeriesKey) + sizeof(Series) + s.buckets.capacity() * sizeof(RollupBucket);
  }
  return bytes;
}

namespace {

void WriteBucketJson(std::ostream& os, std::int64_t start_us, const RollupBucket& b) {
  os << "{\"t_ms\":" << static_cast<double>(start_us) / 1e3 << ",\"count\":" << b.count
     << ",\"sum\":" << b.sum << ",\"min\":" << b.min << ",\"max\":" << b.max
     << ",\"p50\":" << b.sketch.Quantile(0.5) << ",\"p99\":" << b.sketch.Quantile(0.99)
     << "}";
}

}  // namespace

void TimeBucketRollup::WriteJson(std::ostream& os) const {
  os << "{\n  \"bucket_width_us\": " << options_.bucket_width.count()
     << ",\n  \"events_folded\": " << events_folded_
     << ",\n  \"rescales\": " << rescales_ << ",\n  \"series\": {\n";
  bool first_series = true;
  for (const auto& [key, s] : series_) {
    if (!first_series) os << ",\n";
    first_series = false;
    os << "    ";
    jsonio::WriteString(os, std::string{ToString(key.layer)} + '/' +
                                TraceNameRegistry::Instance().NameOf(key.name));
    os << ": {\"width_us\":" << s.width.count() << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (s.buckets[i].count == 0) continue;  // sparse series stay sparse
      if (!first) os << ',';
      first = false;
      WriteBucketJson(os, static_cast<std::int64_t>(i) * s.width.count(),
                      s.buckets[i]);
    }
    RollupBucket total;
    for (const RollupBucket& b : s.buckets) total.Merge(b);
    os << "],\"total\":";
    WriteBucketJson(os, 0, total);
    os << "}";
  }
  os << "\n  }\n}\n";
}

void TimeBucketRollup::WriteCsv(std::ostream& os) const {
  os << "series,layer,bucket_start_ms,count,sum,min,max,p50,p99\n";
  for (const auto& [key, s] : series_) {
    const std::string name = TraceNameRegistry::Instance().NameOf(key.name);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      const RollupBucket& b = s.buckets[i];
      if (b.count == 0) continue;
      os << name << ',' << ToString(key.layer) << ','
         << static_cast<double>(static_cast<std::int64_t>(i) * s.width.count()) / 1e3
         << ',' << b.count << ',' << b.sum << ',' << b.min << ',' << b.max << ','
         << b.sketch.Quantile(0.5) << ',' << b.sketch.Quantile(0.99) << '\n';
    }
  }
}

}  // namespace athena::obs::pipeline
