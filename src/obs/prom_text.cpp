#include "obs/prom_text.hpp"

#include <cmath>
#include <ostream>
#include <type_traits>
#include <utility>

#include "obs/live/detectors.hpp"
#include "obs/live/live.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline/rollup.hpp"

namespace athena::obs::prom {
namespace {

bool ValidStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

bool ValidRest(char c) { return ValidStart(c) || (c >= '0' && c <= '9'); }

/// Regular ostream formatting for finite values, the tokens `+Inf` /
/// `-Inf` / `NaN` otherwise.
void WriteValue(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << v;
  }
}

void WriteHeader(std::ostream& os, std::string_view name, std::string_view type,
                 std::string_view help) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

/// `name value` — integers verbatim, doubles through WriteValue.
template <typename V>
void WriteSample(std::ostream& os, std::string_view name, V value) {
  os << name << ' ';
  if constexpr (std::is_floating_point_v<V>) {
    WriteValue(os, value);
  } else {
    os << value;
  }
  os << '\n';
}

/// A one-series family: header plus its single sample.
template <typename V>
void WriteFamily(std::ostream& os, const std::string& name, std::string_view type,
                 std::string_view help, V value) {
  WriteHeader(os, name, type, help);
  WriteSample(os, name, value);
}

/// Shard assignment on the *family* name (prefix + sanitized metric), so
/// a family's `_count`/`_sum`/quantile series never split across shards.
bool OnShard(const std::string& family, const ExpositionOptions& options) {
  if (options.shard_count <= 1) return true;
  return NameShard(family) % options.shard_count == options.shard;
}

void WriteHistogram(std::ostream& os, const std::string& name,
                    const stats::Histogram& h) {
  WriteHeader(os, name, "histogram", "Athena histogram");
  // Prometheus buckets are cumulative upper bounds; the registry's
  // histograms are fixed-width [lo, hi) bins with explicit under/overflow,
  // so underflow folds into the first bucket and overflow into +Inf.
  std::uint64_t cumulative = h.underflow();
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    cumulative += h.bin(i);
    os << name << "_bucket{le=\"";
    WriteValue(os, h.bin_low(i) + h.bin_width());
    os << "\"} " << cumulative << '\n';
  }
  os << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
  WriteSample(os, name + "_sum", h.sum());
  WriteSample(os, name + "_count", h.count());
}

void WriteRegistry(std::ostream& os, const MetricsRegistry& registry,
                   const ExpositionOptions& options) {
  const auto family = [&](const std::string& name) {
    return SanitizeMetricName(options.prefix + name);
  };
  for (const auto& [name, value] : registry.counters()) {
    const std::string full = family(name);
    if (OnShard(full, options)) WriteFamily(os, full, "counter", "Athena counter", value);
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string full = family(name);
    if (OnShard(full, options)) WriteFamily(os, full, "gauge", "Athena gauge", value);
  }
  for (const auto& [name, s] : registry.stats()) {
    const std::string full = family(name);
    if (!OnShard(full, options)) continue;
    WriteHeader(os, full, "summary", "Athena streaming stats");
    WriteSample(os, full + "_count", s.count());
    WriteSample(os, full + "_sum", s.sum());
    for (const auto& [suffix, v] :
         {std::pair<const char*, double>{"_mean", s.mean()},
          {"_min", s.min()},
          {"_max", s.max()}}) {
      WriteFamily(os, full + suffix, "gauge", "Athena streaming stats", v);
    }
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string full = family(name);
    if (OnShard(full, options)) WriteHistogram(os, full, h);
  }
}

/// Rollup series export as whole-series aggregates per (name, layer).
void WriteRollup(std::ostream& os, const pipeline::TimeBucketRollup& rollup,
                 const ExpositionOptions& options) {
  for (const auto& [key, series] : rollup.series()) {
    const std::string family = SanitizeMetricName(
        options.prefix + "rollup_" + TraceNameRegistry::Instance().NameOf(key.name));
    if (!OnShard(family, options)) continue;
    pipeline::RollupBucket total;
    for (const pipeline::RollupBucket& b : series.buckets) total.Merge(b);
    const std::string layer = ToString(key.layer);
    const std::string labels = "{layer=\"" + layer + "\"}";
    WriteHeader(os, family, "summary", "Athena rollup series");
    WriteSample(os, family + "_count" + labels, total.count);
    WriteSample(os, family + "_sum" + labels, total.sum);
    for (const auto& [q, v] :
         {std::pair<const char*, double>{"0.5", total.sketch.Quantile(0.5)},
          {"0.99", total.sketch.Quantile(0.99)}}) {
      WriteSample(os, family + "{layer=\"" + layer + "\",quantile=\"" + q + "\"}", v);
    }
    WriteSample(os, family + "_min" + labels, total.min);
    WriteSample(os, family + "_max" + labels, total.max);
  }
}

void WriteLiveState(std::ostream& os, const live::LiveEngine& live,
                    const ExpositionOptions& options) {
  const std::string& p = options.prefix;
  const live::DetectorBank& bank = live.bank();

  if (const std::string name = p + "anomalies_total"; OnShard(name, options)) {
    WriteHeader(os, name, "counter", "Anomalies emitted by the live detectors");
    for (std::size_t i = 0; i < live::kAnomalyKindCount; ++i) {
      const auto kind = static_cast<live::AnomalyKind>(i);
      os << name << "{kind=\"" << live::SlugFor(kind) << "\",layer=\"ran\"} "
         << bank.anomaly_count(kind) << '\n';
    }
  }
  if (const std::string name = p + "detector_confidence"; OnShard(name, options)) {
    WriteHeader(os, name, "gauge", "Peak confidence reported per detector");
    for (const auto& d : bank.detectors()) {
      WriteSample(os, name + "{detector=\"" + d->name() + "\"}", d->max_confidence());
    }
  }
  const auto family = [&](const char* name, const char* type, const char* help,
                          std::uint64_t value) {
    const std::string full = p + name;
    if (OnShard(full, options)) WriteFamily(os, full, type, help, value);
  };
  family("event_log_records", "gauge", "Records currently retained in the event log",
         live.log().size());
  family("event_log_dropped_total", "counter", "Event-log records evicted by the ring",
         live.log().dropped_count());
  family("frames_rendered_total", "counter", "Media frames/samples played out",
         live.frames_rendered());
  family("frames_late_total", "counter", "Media frames/samples played out late",
         live.frames_late());
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || !ValidStart(name.front())) out.push_back('_');
  for (char c : name) out.push_back(ValidRest(c) ? c : '_');
  return out;
}

std::uint64_t NameShard(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void WritePrometheus(std::ostream& os, const MetricsRegistry& registry,
                     const pipeline::TimeBucketRollup* rollup,
                     const live::LiveEngine* live, const ExpositionOptions& options) {
  os << "# Athena metrics exposition (Prometheus text format 0.0.4)";
  if (options.shard_count > 1) {
    os << ", shard " << options.shard << '/' << options.shard_count;
  }
  os << '\n';
  WriteRegistry(os, registry, options);
  if (rollup != nullptr) WriteRollup(os, *rollup, options);
  if (live != nullptr) WriteLiveState(os, *live, options);
}

}  // namespace athena::obs::prom
