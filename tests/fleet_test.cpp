// Tests for the fleet observability layer (src/obs/fleet/): session
// summaries, order-insensitive population aggregation, the SLO engine's
// error-budget math, report JSON round-trips, the regression gate, and
// the cross-job byte-identity contract over the chaos matrix.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/report.hpp"
#include "obs/fleet/slo.hpp"
#include "obs/fleet/summary.hpp"
#include "obs/pipeline/rollup.hpp"

namespace athena::obs::fleet {
namespace {

SessionSummary MakeSummary(const std::string& scenario, std::uint64_t seed,
                           double owd_ms, double audio_gap) {
  SessionSummary s;
  s.scenario = scenario;
  s.seed = seed;
  s.valid = true;
  for (int i = 0; i < 10; ++i) {
    s.metric(FleetMetric::kUplinkOwdMs).Add(owd_ms + static_cast<double>(i));
  }
  s.metric(FleetMetric::kAudioGapFraction).Add(audio_gap);
  return s;
}

std::string ReportBytes(const FleetAggregator& aggregator, const SloEngine& slos) {
  std::ostringstream os;
  WriteJson(BuildReport(aggregator, slos), os);
  return os.str();
}

// --- metric catalog ---

TEST(FleetMetricTest, NamesRoundTrip) {
  for (std::size_t i = 0; i < kFleetMetricCount; ++i) {
    const auto m = static_cast<FleetMetric>(i);
    const auto back = MetricFromName(ToString(m));
    ASSERT_TRUE(back.has_value()) << ToString(m);
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(MetricFromName("no_such_metric").has_value());
}

// --- quantile sketch rank queries (SLO primitive) ---

TEST(QuantileSketchTest, CountAtOrBelowIsMonotoneAndApproximate) {
  pipeline::QuantileSketch sketch;
  for (int i = 1; i <= 1000; ++i) sketch.Add(static_cast<double>(i));

  EXPECT_DOUBLE_EQ(sketch.CountAtOrBelow(-1.0), 0.0);
  double prev = 0.0;
  for (const double x : {0.5, 10.0, 100.0, 500.0, 2000.0}) {
    const double n = sketch.CountAtOrBelow(x);
    EXPECT_GE(n, prev) << "x=" << x;
    prev = n;
  }
  // ~19% relative-error sketch: the rank at x=500 must land near 500.
  EXPECT_NEAR(sketch.CountAtOrBelow(500.0), 500.0, 120.0);
  EXPECT_DOUBLE_EQ(sketch.CountAtOrBelow(2000.0), 1000.0);
}

// --- aggregation ---

TEST(FleetAggregatorTest, FoldIsOrderInsensitiveAndMergeExact) {
  std::vector<SessionSummary> sessions;
  for (std::uint64_t i = 0; i < 8; ++i) {
    sessions.push_back(MakeSummary(i % 2 == 0 ? "clean" : "hostile", i,
                                   5.0 + static_cast<double>(i), 0.01));
  }

  FleetAggregator forward;
  for (const auto& s : sessions) forward.Fold(s);

  FleetAggregator reversed;
  for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) reversed.Fold(*it);

  FleetAggregator left, right, merged;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    (i < sessions.size() / 2 ? left : right).Fold(sessions[i]);
  }
  merged.Merge(left);
  merged.Merge(right);

  const SloEngine no_slos{std::vector<SloSpec>{}};
  const std::string a = ReportBytes(forward, no_slos);
  EXPECT_EQ(a, ReportBytes(reversed, no_slos));
  EXPECT_EQ(a, ReportBytes(merged, no_slos));
  EXPECT_EQ(forward.sessions(), 8u);
  EXPECT_EQ(forward.scenarios().size(), 2u);
}

TEST(FleetAggregatorTest, InvalidSessionsAreCountedNotFolded) {
  FleetAggregator aggregator;
  SessionSummary invalid;
  invalid.scenario = "s";
  aggregator.Fold(invalid);
  EXPECT_EQ(aggregator.fleet().sessions, 1u);
  EXPECT_EQ(aggregator.fleet().invalid_sessions, 1u);
  EXPECT_EQ(aggregator.fleet().metric(FleetMetric::kUplinkOwdMs).count, 0u);
}

TEST(FleetAggregatorTest, PrevalenceCountsSessionsNotEvents) {
  FleetAggregator aggregator;
  auto with_gap = MakeSummary("s", 1, 5.0, 0.0);
  with_gap.anomalies[static_cast<std::size_t>(live::AnomalyKind::kTelemetryGap)] = 7;
  aggregator.Fold(with_gap);
  aggregator.Fold(MakeSummary("s", 2, 5.0, 0.0));
  EXPECT_DOUBLE_EQ(
      aggregator.fleet().PrevalenceFraction(live::AnomalyKind::kTelemetryGap), 0.5);
  EXPECT_EQ(aggregator.fleet().anomalies_total, 7u);
}

// --- SLO spec parsing ---

TEST(SloSpecTest, ParsesTheDocumentedFormat) {
  const auto spec =
      ParseSloLine("owd_p95: sample uplink_owd_ms <= 20 @ 0.95 window 32");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "owd_p95");
  EXPECT_EQ(spec->metric, FleetMetric::kUplinkOwdMs);
  EXPECT_EQ(spec->granularity, Granularity::kSample);
  EXPECT_DOUBLE_EQ(spec->threshold, 20.0);
  EXPECT_DOUBLE_EQ(spec->target, 0.95);
  EXPECT_EQ(spec->window, 32u);
}

TEST(SloSpecTest, CommentsAndBlanksAreSkippedMalformedThrows) {
  EXPECT_FALSE(ParseSloLine("").has_value());
  EXPECT_FALSE(ParseSloLine("   # just a comment").has_value());
  EXPECT_THROW((void)ParseSloLine("name sample uplink_owd_ms <= 1 @ 0.9"),
               std::runtime_error);  // missing ':'
  EXPECT_THROW((void)ParseSloLine("n: sample no_such_metric <= 1 @ 0.9"),
               std::runtime_error);
  EXPECT_THROW((void)ParseSloLine("n: sample uplink_owd_ms <= 1 @ 1.5"),
               std::runtime_error);  // target out of (0,1)
  EXPECT_THROW((void)ParseSloLine("n: sample frame_late_fraction <= 1 @ 0.9"),
               std::runtime_error);  // session-scalar metric, sample granularity
  // Session granularity over a sample metric is legal: judges the mean.
  EXPECT_TRUE(ParseSloLine("n: session uplink_owd_ms <= 1 @ 0.9").has_value());
}

TEST(SloSpecTest, DefaultCatalogParses) {
  const auto slos = DefaultSlos();
  EXPECT_GE(slos.size(), 4u);
}

// --- SLO engine math ---

TEST(SloEngineTest, ComplianceBudgetAndBurnRate) {
  // One session-granularity SLO, target 0.9, window 4: after 10 sessions
  // of which 2 violate, compliance = 0.8 and the budget is overspent 2x.
  SloSpec spec;
  spec.name = "gap";
  spec.metric = FleetMetric::kAudioGapFraction;
  spec.granularity = Granularity::kSession;
  spec.threshold = 0.05;
  spec.target = 0.9;
  spec.window = 4;
  SloEngine engine{{spec}};

  for (int i = 0; i < 8; ++i) engine.Observe(MakeSummary("s", i, 5.0, 0.01));
  for (int i = 8; i < 10; ++i) engine.Observe(MakeSummary("s", i, 5.0, 0.5));

  const auto results = engine.Results();
  ASSERT_EQ(results.size(), 1u);
  const SloResult& r = results[0];
  EXPECT_DOUBLE_EQ(r.total, 10.0);
  EXPECT_DOUBLE_EQ(r.good, 8.0);
  EXPECT_DOUBLE_EQ(r.compliance, 0.8);
  EXPECT_FALSE(r.ok());
  // budget_remaining = 1 − (1−0.8)/(1−0.9) = −1 (overspent 2x).
  EXPECT_DOUBLE_EQ(r.budget_remaining, -1.0);
  // Window holds the last 4 sessions: 2 good, 2 bad → burn = 0.5/0.1 = 5.
  EXPECT_DOUBLE_EQ(r.window_compliance, 0.5);
  EXPECT_DOUBLE_EQ(r.burn_rate, 5.0);
  EXPECT_FALSE(engine.AllOk());
}

TEST(SloEngineTest, NothingObservedIsCompliant) {
  const SloEngine engine;  // built-in catalog
  for (const SloResult& r : engine.Results()) {
    EXPECT_DOUBLE_EQ(r.compliance, 1.0);
    EXPECT_DOUBLE_EQ(r.budget_remaining, 1.0);
    EXPECT_DOUBLE_EQ(r.burn_rate, 0.0);
    EXPECT_TRUE(r.ok());
  }
  EXPECT_TRUE(engine.AllOk());
}

TEST(SloEngineTest, SampleGranularityJudgesEverySample) {
  SloSpec spec;
  spec.name = "owd";
  spec.metric = FleetMetric::kUplinkOwdMs;
  spec.threshold = 100.0;  // far above every sample → all good
  spec.target = 0.5;
  SloEngine engine{{spec}};
  engine.Observe(MakeSummary("s", 1, 5.0, 0.0));
  const auto results = engine.Results();
  EXPECT_DOUBLE_EQ(results[0].total, 10.0);  // 10 samples, not 1 session
  EXPECT_DOUBLE_EQ(results[0].compliance, 1.0);
}

// --- report round-trip + gate ---

TEST(FleetReportTest, JsonRoundTripIsByteStable) {
  // A control character in a name must survive the escaper and parser.
  const std::string odd = "ctl\x01" "name\ttab";
  FleetAggregator aggregator;
  for (std::uint64_t i = 0; i < 6; ++i) {
    aggregator.Fold(MakeSummary(i % 2 == 0 ? "a" : odd, i, 4.0 + double(i), 0.02));
  }
  SloEngine engine;
  for (std::uint64_t i = 0; i < 6; ++i) {
    engine.Observe(MakeSummary(i % 2 == 0 ? "a" : odd, i, 4.0 + double(i), 0.02));
  }

  std::ostringstream first;
  WriteJson(BuildReport(aggregator, engine), first);
  EXPECT_NE(first.str().find(R"("ctl\u0001name\ttab")"), std::string::npos);

  std::istringstream in{first.str()};
  const FleetReport parsed = ParseReport(in);
  std::ostringstream second;
  WriteJson(parsed, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(parsed.sessions, 6u);
  EXPECT_EQ(parsed.scenarios.size(), 2u);
  EXPECT_EQ(parsed.scenarios.count(odd), 1u);
  ASSERT_FALSE(parsed.slos.empty());
}

TEST(FleetReportTest, ParseRejectsMalformedJson) {
  std::istringstream truncated{R"({"sessions": 3, "fleet")"};
  EXPECT_THROW((void)ParseReport(truncated), std::runtime_error);
  std::istringstream missing{R"({"sessions": 3})"};
  EXPECT_THROW((void)ParseReport(missing), std::runtime_error);

  // \u escapes are bounds-checked: truncated, non-hex and non-ASCII
  // escapes are rejected as such.
  const auto error_of = [](const std::string& text) -> std::string {
    std::istringstream in{text};
    try {
      (void)ParseReport(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_NE(error_of(R"({"sessions": 3, "fleet": {"x\u00)").find("truncated \\u"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"sessions": 3, "fleet": {"x\u00zz": 1}})").find("bad \\u"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"sessions": 3, "fleet": {"x\u00e9": 1}})").find("non-ASCII"),
            std::string::npos);
}

TEST(FleetGateTest, ReportDominatesItself) {
  FleetAggregator aggregator;
  SloEngine engine;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto s = MakeSummary("a", i, 5.0, 0.01);
    aggregator.Fold(s);
    engine.Observe(s);
  }
  const FleetReport report = BuildReport(aggregator, engine);
  const GateResult gate = GateAgainstBaseline(report, report);
  EXPECT_TRUE(gate.ok) << (gate.failures.empty() ? "" : gate.failures.front());
}

TEST(FleetGateTest, SeededRegressionFailsTheGate) {
  FleetAggregator base_agg, bad_agg;
  SloEngine base_slos{std::vector<SloSpec>{}}, bad_slos{std::vector<SloSpec>{}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    base_agg.Fold(MakeSummary("a", i, 5.0, 0.01));
    bad_agg.Fold(MakeSummary("a", i, 50.0, 0.01));  // 10x the uplink OWD
  }
  const GateResult gate = GateAgainstBaseline(BuildReport(bad_agg, bad_slos),
                                              BuildReport(base_agg, base_slos));
  EXPECT_FALSE(gate.ok);
  ASSERT_FALSE(gate.failures.empty());
  EXPECT_NE(gate.failures.front().find("uplink_owd_ms"), std::string::npos);
}

TEST(FleetGateTest, PrevalenceAxisCanBeSkippedForOnOffComparisons) {
  // A mitigated population legitimately detects more anomalies than an
  // un-mitigated baseline (actuations change what the detectors see);
  // compare_prevalence=false keeps the QoE/delay axes as the contract.
  FleetAggregator base_agg, loud_agg;
  SloEngine base_slos{std::vector<SloSpec>{}}, loud_slos{std::vector<SloSpec>{}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    base_agg.Fold(MakeSummary("a", i, 5.0, 0.01));
    auto s = MakeSummary("a", i, 5.0, 0.01);
    s.anomalies[static_cast<std::size_t>(
        obs::live::AnomalyKind::kOverGranting)] = 3;
    loud_agg.Fold(s);
  }
  const FleetReport current = BuildReport(loud_agg, loud_slos);
  const FleetReport baseline = BuildReport(base_agg, base_slos);
  const GateResult strict = GateAgainstBaseline(current, baseline);
  EXPECT_FALSE(strict.ok);
  ASSERT_FALSE(strict.failures.empty());
  EXPECT_NE(strict.failures.front().find("prevalence"), std::string::npos);
  GateOptions options;
  options.compare_prevalence = false;
  const GateResult relaxed = GateAgainstBaseline(current, baseline, options);
  EXPECT_TRUE(relaxed.ok)
      << (relaxed.failures.empty() ? "" : relaxed.failures.front());
}

TEST(FleetGateTest, SloViolationFailsTheGateEvenWithoutCdfRegression) {
  SloSpec spec;
  spec.name = "gap";
  spec.metric = FleetMetric::kAudioGapFraction;
  spec.granularity = Granularity::kSession;
  spec.threshold = 0.001;
  spec.target = 0.99;
  FleetAggregator aggregator;
  SloEngine engine{{spec}};
  const auto s = MakeSummary("a", 1, 5.0, 0.02);
  aggregator.Fold(s);
  engine.Observe(s);
  const FleetReport report = BuildReport(aggregator, engine);
  // Same aggregate as baseline, so no CDF regression — the failed SLO
  // alone must trip the gate.
  const GateResult gate = GateAgainstBaseline(report, report);
  EXPECT_FALSE(gate.ok);
  ASSERT_FALSE(gate.failures.empty());
  EXPECT_NE(gate.failures.front().find("slo gap"), std::string::npos);
}

// --- the determinism contract over real chaos runs ---

TEST(FleetMatrixTest, ReportBytesIdenticalAcrossJobCounts) {
  // Two real scenarios × two seeds per job count. The fold happens in
  // run-index order on the outcomes vector, so the report must come out
  // byte-identical at any parallelism.
  std::vector<fault::ChaosScenario> scenarios;
  const auto catalog = fault::BuiltinScenarios();
  scenarios.push_back(*fault::FindScenario(catalog, "clean_baseline"));
  scenarios.push_back(*fault::FindScenario(catalog, "telemetry_drop"));

  std::vector<std::string> reports;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    const fault::ChaosMatrixResult result =
        fault::RunChaosMatrix(scenarios, 7, 2, jobs, {.summarize = true});
    FleetAggregator aggregator;
    SloEngine engine;
    for (const fault::ChaosOutcome& o : result.outcomes) {
      ASSERT_TRUE(o.summary && o.summary->valid) << o.scenario << " seed " << o.seed;
      aggregator.Fold(*o.summary);
      engine.Observe(*o.summary);
    }
    reports.push_back(ReportBytes(aggregator, engine));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);

  // And the summaries carry the decomposition the fleet layer exists for.
  std::istringstream in{reports[0]};
  const FleetReport report = ParseReport(in);
  EXPECT_EQ(report.sessions, 4u);
  for (const char* metric : {"uplink_owd_ms", "slot_wait_ms", "core_sfu_ms",
                             "jb_hold_ms", "mouth_to_ear_ms"}) {
    ASSERT_TRUE(report.fleet.metrics.contains(metric)) << metric;
    EXPECT_GT(report.fleet.metrics.at(metric).count, 0u) << metric;
  }
}

TEST(FleetMatrixTest, SupervisedScenarioStillProducesASummary) {
  const auto catalog = fault::BuiltinScenarios();
  const fault::ChaosScenario* kill = fault::FindScenario(catalog, "kill_restore_midrun");
  ASSERT_NE(kill, nullptr);
  const fault::ChaosOutcome outcome =
      fault::RunChaosScenario(*kill, 11, {.summarize = true});
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
  ASSERT_TRUE(outcome.summary.has_value());
  EXPECT_TRUE(outcome.summary->valid);
  EXPECT_GT(outcome.summary->metric(FleetMetric::kUplinkOwdMs).count, 0u);
}

}  // namespace
}  // namespace athena::obs::fleet
