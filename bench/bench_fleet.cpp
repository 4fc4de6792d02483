// Fleet-aggregation baseline (BENCH_fleet.json): how fast SessionSummaries
// fold into the population view, what sharded Merge costs, the size and
// cost of the serialized report, and the end-to-end extraction overhead of
// running the chaos matrix with --fleet summarization on vs off.
//
// Doubles as the CI gate for the layer's structural invariants: exits
// non-zero when sharded merge is not structurally equal to a sequential
// fold, when the JSON round-trip is not byte-stable, or when a report
// fails to dominate itself at the gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/report.hpp"
#include "obs/fleet/slo.hpp"
#include "obs/fleet/summary.hpp"
#include "sim/random.hpp"
#include "sim/runner.hpp"
#include "sim/wall_clock.hpp"

namespace {

// A synthetic but realistically shaped summary: ~600 packet samples across
// the delay decomposition plus the session scalars, varied by seed so the
// sketches are not degenerate.
athena::obs::fleet::SessionSummary MakeSummary(std::uint64_t seed) {
  using athena::obs::fleet::FleetMetric;
  athena::sim::Rng rng{athena::sim::DeriveSeed(seed, 17)};
  athena::obs::fleet::SessionSummary s;
  s.scenario = seed % 3 == 0 ? "clean" : (seed % 3 == 1 ? "fading" : "loaded");
  s.seed = seed;
  s.valid = true;
  for (int i = 0; i < 200; ++i) {
    const double owd = 4.0 + rng.ExponentialMean(6.0);
    s.metric(FleetMetric::kUplinkOwdMs).Add(owd);
    s.metric(FleetMetric::kSlotWaitMs).Add(rng.Uniform(0.0, 0.5));
    s.metric(FleetMetric::kCoreSfuMs).Add(10.0 + rng.Uniform(0.0, 2.0));
  }
  for (int i = 0; i < 60; ++i) {
    s.metric(FleetMetric::kFrameDelayMs).Add(8.0 + rng.ExponentialMean(4.0));
    s.metric(FleetMetric::kMouthToEarMs).Add(120.0 + rng.ExponentialMean(20.0));
    s.metric(FleetMetric::kSsimDistortion).Add(rng.Uniform(0.0, 0.08));
  }
  s.metric(FleetMetric::kFrameLateFraction).Add(rng.Uniform(0.0, 0.04));
  s.metric(FleetMetric::kAudioGapFraction).Add(rng.Uniform(0.0, 0.04));
  if (seed % 5 == 0) {
    s.anomalies[static_cast<std::size_t>(
        athena::obs::live::AnomalyKind::kDelaySpreadQuantization)] = 3;
  }
  return s;
}

std::string ReportBytes(const athena::obs::fleet::FleetAggregator& aggregator,
                        const athena::obs::fleet::SloEngine& slos) {
  std::ostringstream os;
  athena::obs::fleet::WriteJson(athena::obs::fleet::BuildReport(aggregator, slos), os);
  return os.str();
}

// Merge() is exact on everything except the FP-order-sensitive `sum`: the
// production byte-identity contract folds in run-index order (no Merge on
// the --jobs path), so here we require exact counts / min / max /
// quantiles / prevalence and last-ulp-tolerant means.
bool StructurallyEqual(const athena::obs::fleet::ScenarioReport& a,
                       const athena::obs::fleet::ScenarioReport& b) {
  if (a.sessions != b.sessions || a.invalid_sessions != b.invalid_sessions ||
      a.degraded_sessions != b.degraded_sessions ||
      a.anomalies_total != b.anomalies_total || a.prevalence != b.prevalence ||
      a.metrics.size() != b.metrics.size()) {
    return false;
  }
  for (const auto& [name, m] : a.metrics) {
    const auto it = b.metrics.find(name);
    if (it == b.metrics.end()) return false;
    const auto& n = it->second;
    if (m.count != n.count || m.min != n.min || m.max != n.max ||
        m.quantiles != n.quantiles) {
      return false;
    }
    const double scale = std::max(std::abs(m.mean), std::abs(n.mean));
    if (std::abs(m.mean - n.mean) > 1e-9 * std::max(scale, 1.0)) return false;
  }
  return true;
}

bool StructurallyEqual(const athena::obs::fleet::FleetReport& a,
                       const athena::obs::fleet::FleetReport& b) {
  if (a.sessions != b.sessions || a.scenarios.size() != b.scenarios.size() ||
      !StructurallyEqual(a.fleet, b.fleet)) {
    return false;
  }
  for (const auto& [name, scenario] : a.scenarios) {
    const auto it = b.scenarios.find(name);
    if (it == b.scenarios.end() || !StructurallyEqual(scenario, it->second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace athena;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fleet.json";
  bool smoke = false;
  for (int i = 2; i < argc; ++i) smoke = smoke || std::string(argv[i]) == "--smoke";

  const std::size_t kSessions = smoke ? 5'000 : 50'000;
  const std::size_t kShards = 8;

  // --- synthesize the input population once, off the clock ---
  std::vector<obs::fleet::SessionSummary> population;
  population.reserve(kSessions);
  for (std::uint64_t i = 0; i < kSessions; ++i) population.push_back(MakeSummary(i));

  // --- fold throughput: sequential aggregation + SLO evaluation ---
  auto t0 = sim::WallClock::now();
  obs::fleet::FleetAggregator sequential;
  obs::fleet::SloEngine slos;
  for (const auto& s : population) {
    sequential.Fold(s);
    slos.Observe(s);
  }
  const double fold_secs = sim::SecondsSince(t0);
  const double fold_rate = static_cast<double>(kSessions) / fold_secs;
  std::cout << "fold: " << fold_rate / 1e3 << " K sessions/s ("
            << kSessions << " sessions, " << fold_secs * 1e3 << " ms)\n";

  // --- sharded merge: the --jobs N shape ---
  t0 = sim::WallClock::now();
  std::vector<obs::fleet::FleetAggregator> shards(kShards);
  for (std::size_t i = 0; i < population.size(); ++i) {
    shards[i % kShards].Fold(population[i]);
  }
  obs::fleet::FleetAggregator merged;
  for (const auto& shard : shards) merged.Merge(shard);
  const double merge_secs = sim::SecondsSince(t0);
  std::cout << "sharded fold+merge (" << kShards << " shards): "
            << static_cast<double>(kSessions) / merge_secs / 1e3 << " K sessions/s\n";

  // --- report build + serialize ---
  t0 = sim::WallClock::now();
  const std::string report_bytes = ReportBytes(sequential, slos);
  const double report_secs = sim::SecondsSince(t0);
  std::cout << "report: " << report_bytes.size() << " bytes in "
            << report_secs * 1e3 << " ms\n";

  // --- structural invariants (the CI gate) ---
  const bool merge_identical = StructurallyEqual(
      obs::fleet::BuildReport(merged, slos), obs::fleet::BuildReport(sequential, slos));

  std::istringstream in{report_bytes};
  std::ostringstream rewritten;
  obs::fleet::WriteJson(obs::fleet::ParseReport(in), rewritten);
  const bool roundtrip_identical = rewritten.str() == report_bytes;

  std::istringstream in2{report_bytes};
  const obs::fleet::FleetReport parsed = obs::fleet::ParseReport(in2);
  const bool self_gate_ok = obs::fleet::GateAgainstBaseline(parsed, parsed).ok;

  std::cout << "merge_identical=" << (merge_identical ? "yes" : "no")
            << " roundtrip_identical=" << (roundtrip_identical ? "yes" : "no")
            << " self_gate_ok=" << (self_gate_ok ? "yes" : "no") << "\n";

  // --- end-to-end extraction overhead over a real (small) chaos matrix ---
  const auto catalog = fault::BuiltinScenarios();
  std::vector<fault::ChaosScenario> sample;
  sample.push_back(*fault::FindScenario(catalog, "clean_baseline"));
  sample.push_back(*fault::FindScenario(catalog, "telemetry_drop"));
  const std::size_t seeds = smoke ? 1 : 2;

  t0 = sim::WallClock::now();
  const auto plain = fault::RunChaosMatrix(sample, 42, seeds, 2);
  const double plain_secs = sim::SecondsSince(t0);
  t0 = sim::WallClock::now();
  const auto summarized = fault::RunChaosMatrix(sample, 42, seeds, 2, {.summarize = true});
  const double summarize_secs = sim::SecondsSince(t0);
  const double overhead =
      plain_secs > 0.0 ? (summarize_secs - plain_secs) / plain_secs : 0.0;
  std::cout << "chaos matrix (" << plain.outcomes.size() << " runs): plain "
            << plain_secs * 1e3 << " ms, summarized " << summarize_secs * 1e3
            << " ms (" << overhead * 100.0 << "% extraction overhead)\n";

  std::ofstream os{out_path};
  os << "{\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"aggregation\": {\n";
  os << "    \"sessions\": " << kSessions << ",\n";
  os << "    \"fold_sessions_per_sec\": " << fold_rate << ",\n";
  os << "    \"sharded_sessions_per_sec\": "
     << static_cast<double>(kSessions) / merge_secs << ",\n";
  os << "    \"shards\": " << kShards << "\n";
  os << "  },\n";
  os << "  \"report\": {\n";
  os << "    \"bytes\": " << report_bytes.size() << ",\n";
  os << "    \"build_serialize_secs\": " << report_secs << ",\n";
  os << "    \"merge_identical\": " << (merge_identical ? "true" : "false") << ",\n";
  os << "    \"roundtrip_identical\": " << (roundtrip_identical ? "true" : "false") << ",\n";
  os << "    \"self_gate_ok\": " << (self_gate_ok ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"extraction\": {\n";
  os << "    \"matrix_runs\": " << plain.outcomes.size() << ",\n";
  os << "    \"plain_secs\": " << plain_secs << ",\n";
  os << "    \"summarized_secs\": " << summarize_secs << ",\n";
  os << "    \"overhead_fraction\": " << overhead << "\n";
  os << "  }\n";
  os << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!merge_identical || !roundtrip_identical || !self_gate_ok) return 1;
  if (!plain.all_ok() || !summarized.all_ok()) return 1;
  return 0;
}
