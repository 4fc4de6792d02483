// Prometheus text exposition (format 0.0.4): the one writer behind every
// exposition Athena emits — athena_cli --expose (the registry plus the
// live detector state), --export-shards (the fleet registry plus the
// rollup series, split into N files) and --fleet-expose (fleet gauges).
// Write to a file on a period and point a node-exporter-style textfile
// collector at it.
//
// Mapping:
//   counter           → `<prefix><name> <value>` with `# TYPE ... counter`
//   gauge             → `# TYPE ... gauge`
//   RunningStats      → `_count`/`_sum` summary + `_mean`/`_min`/`_max` gauges
//   stats::Histogram  → cumulative `_bucket{le="..."}` series ending in
//                       `le="+Inf"`, plus `_sum` and `_count`
//   rollup series     → `<prefix>rollup_<name>{layer=...}` summary of the
//                       whole series: count/sum, p50/p99, min/max
//   live detectors    → `athena_anomalies_total{kind=...,layer=...}`,
//                       per-detector confidence gauges, event-log depth
//
// Format rules:
//   - metric names are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* (dots and
//     dashes become underscores; a leading digit gains a '_' prefix),
//   - non-finite values serialize as the tokens +Inf / -Inf / NaN,
//   - every family is preceded by `# HELP` / `# TYPE` comment lines.
//
// Sharding: family F lands on shard NameShard(F) % shard_count, so N
// scrape endpoints each carry ~1/N of the series and a family never
// migrates between shards across releases. Shards are disjoint and
// their union is exactly the shard_count = 1 exposition (less the top
// comment line, which names the shard).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace athena::obs {

class MetricsRegistry;
namespace live {
class LiveEngine;
}
namespace pipeline {
class TimeBucketRollup;
}

namespace prom {

/// `athena.cc.target-bps` → `athena_cc_target_bps`. Prepends '_' when the
/// first character would be invalid (e.g. a digit).
[[nodiscard]] std::string SanitizeMetricName(std::string_view name);

/// FNV-1a over the metric name — the shard assignment hash. Stable across
/// platforms/releases so a fleet's scrape config doesn't churn: shard =
/// NameShard(name) % shard_count, forever.
[[nodiscard]] std::uint64_t NameShard(std::string_view name);

struct ExpositionOptions {
  std::string prefix = "athena_";
  unsigned shard = 0;        ///< which shard to render
  unsigned shard_count = 1;  ///< total shards (1 = the whole exposition)
};

/// Renders every family of `registry`, of `rollup` and of `live`'s
/// detector state (each when given) that lands on `options.shard`. An
/// empty registry alone yields only the header comment — still a valid
/// exposition.
void WritePrometheus(std::ostream& os, const MetricsRegistry& registry,
                     const pipeline::TimeBucketRollup* rollup = nullptr,
                     const live::LiveEngine* live = nullptr,
                     const ExpositionOptions& options = {});

}  // namespace prom
}  // namespace athena::obs
