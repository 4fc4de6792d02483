// Observability subsystem tests: Chrome trace JSON well-formedness and
// balanced spans, metric ↔ ground-truth agreement on a deterministic run,
// null-sink inertness (obs off changes nothing), registry mechanics, and
// the kernel's profiling hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "fault/chaos.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace athena;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough to validate the trace export without
// pulling in a dependency. Parses the full value grammar; throws on error.
// ---------------------------------------------------------------------------
struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  [[nodiscard]] const JsonObject& object() const { return std::get<JsonObject>(v); }
  [[nodiscard]] const JsonArray& array() const { return std::get<JsonArray>(v); }
  [[nodiscard]] const std::string& str() const { return std::get<std::string>(v); }
  [[nodiscard]] double num() const { return std::get<double>(v); }

  [[nodiscard]] const JsonValue* Find(const std::string& key) const {
    const auto& o = object();
    const auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWs();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return JsonValue{ParseString()};
      case 't': Literal("true"); return JsonValue{true};
      case 'f': Literal("false"); return JsonValue{false};
      case 'n': Literal("null"); return JsonValue{nullptr};
      default: return ParseNumber();
    }
  }

  void Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) throw std::runtime_error("bad literal");
    pos_ += lit.size();
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonObject o;
    if (Peek() == '}') {
      ++pos_;
      return JsonValue{std::move(o)};
    }
    while (true) {
      std::string key = ParseString();
      Expect(':');
      o.emplace(std::move(key), ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return JsonValue{std::move(o)};
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonArray a;
    if (Peek() == ']') {
      ++pos_;
      return JsonValue{std::move(a)};
    }
    while (true) {
      a.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return JsonValue{std::move(a)};
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        throw std::runtime_error("raw control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            out += '?';  // escaped control char; identity not needed here
            pos_ += 4;
            break;
          default: throw std::runtime_error("bad escape char");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue ParseNumber() {
    SkipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) throw std::runtime_error("bad number");
    return JsonValue{std::stod(std::string(text_.substr(start, pos_ - start)))};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Shared fixture: one deterministic session second, traced end to end.
// ---------------------------------------------------------------------------
struct TracedRun {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<obs::ObsSession> observability;
  std::unique_ptr<app::Session> session;
  core::CrossLayerDataset data;

  explicit TracedRun(sim::Duration span = sim::Duration{2'000'000},
                     obs::ObsSession::Options options = {}) {
    sim = std::make_unique<sim::Simulator>();
    observability = std::make_unique<obs::ObsSession>(*sim, options);
    app::SessionConfig config;
    config.seed = 7;
    config.channel.base_bler = 0.08;  // some HARQ activity
    session = std::make_unique<app::Session>(*sim, config);
    session->Run(span);
    data = core::Correlator::Correlate(session->BuildCorrelatorInput());
  }
};

TEST(TraceJson, IsValidChromeTraceWithAllLayers) {
  TracedRun run;

  std::ostringstream os;
  run.observability->recorder().WriteJson(os);
  const std::string text = os.str();

  const JsonValue doc = JsonParser{text}.Parse();
  ASSERT_TRUE(doc.is_object());
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str(), "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array().size(), 100u);

  std::set<std::string> cats;
  bool saw_process_name = false;
  double prev_ts = -1.0;
  for (const JsonValue& ev : events->array()) {
    ASSERT_TRUE(ev.is_object());
    const JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str() == "M") {
      if (ev.Find("name")->str() == "process_name") saw_process_name = true;
      continue;
    }
    // Every non-metadata event carries a track and a timestamp; the
    // exporter promises ascending ts.
    const JsonValue* cat = ev.Find("cat");
    ASSERT_NE(cat, nullptr);
    cats.insert(cat->str());
    const JsonValue* ts = ev.Find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->num(), prev_ts);
    prev_ts = ts->num();
  }
  EXPECT_TRUE(saw_process_name);

  // The acceptance bar: spans/events from at least 5 distinct layers.
  EXPECT_GE(cats.size(), 5u) << "layers seen: " << cats.size();
  for (const char* expected : {"sim", "net", "ran", "cc", "app", "media", "core"}) {
    EXPECT_TRUE(cats.count(expected) == 1) << "missing track: " << expected;
  }
}

TEST(TraceJson, AsyncSpansAreBalanced) {
  TracedRun run;

  std::ostringstream os;
  run.observability->recorder().WriteJson(os);
  const JsonValue doc = JsonParser{os.str()}.Parse();

  // Chrome matches async begin/end by (cat, id, name); every begin must
  // have exactly one end and none may be left dangling.
  std::map<std::string, int> open;
  std::size_t pairs = 0;
  for (const JsonValue& ev : doc.Find("traceEvents")->array()) {
    const std::string& ph = ev.Find("ph")->str();
    if (ph != "b" && ph != "e") continue;
    const std::string key = ev.Find("cat")->str() + "/" + ev.Find("id")->str() + "/" +
                            ev.Find("name")->str();
    if (ph == "b") {
      ++open[key];
      ++pairs;
    } else {
      // The exporter sorts by ts with the begin stably first, so an end
      // can never precede its begin.
      ASSERT_GT(open[key], 0) << "end before begin for " << key;
      --open[key];
    }
  }
  EXPECT_GT(pairs, 0u);
  for (const auto& [key, count] : open) {
    EXPECT_EQ(count, 0) << "unbalanced async span " << key;
  }
}

TEST(Metrics, AgreeWithGroundTruth) {
  TracedRun run;
  obs::MetricsRegistry& m = run.observability->registry();

  // Kernel gauge vs the simulator's own counter (set by the bridge at the
  // end of each Run* call; nothing runs after the last one).
  EXPECT_EQ(m.GaugeValue("sim.events_executed"),
            static_cast<double>(run.sim->events_executed()));

  // Correlator counters vs the dataset it returned.
  EXPECT_EQ(m.CounterValue("core.packets_correlated"), run.data.packets.size());
  EXPECT_EQ(m.CounterValue("core.frames_correlated"), run.data.frames.size());

  // RAN counter vs the uplink's ground-truth counter.
  ASSERT_NE(run.session->ran_uplink(), nullptr);
  EXPECT_EQ(m.CounterValue("ran.packets_delivered"),
            run.session->ran_uplink()->counters().packets_delivered);

  // Capture tap counter vs the actual capture logs.
  const std::uint64_t captured =
      run.session->sender_capture().count() + run.session->core_capture().count() +
      run.session->sfu_in_capture().count() + run.session->sfu_out_capture().count() +
      run.session->receiver_capture().count();
  EXPECT_EQ(m.CounterValue("net.captured"), captured);

  // Sanity: the app and media layers published too.
  EXPECT_GT(m.CounterValue("app.media_packets_sent"), 0u);
  EXPECT_GT(m.CounterValue("media.frames_rendered"), 0u);
}

TEST(Metrics, PeriodicSnapshotsOnVirtualTimeGrid) {
  TracedRun run{sim::Duration{1'000'000},
                obs::ObsSession::Options{.metrics_period = sim::Duration{100'000}}};
  obs::MetricsRegistry& m = run.observability->registry();
  EXPECT_GT(m.sample_count(), 0u);

  std::ostringstream csv;
  m.WriteCsv(csv);
  std::istringstream lines{csv.str()};
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, "t_us,t_ms,metric,value");
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3) << line;
    ++rows;
  }
  EXPECT_EQ(rows, m.sample_count());
}

TEST(Obs, DisabledObservabilityChangesNothing) {
  // Reference run: no sink, no registry, no hooks.
  auto RunOnce = [](bool with_obs) {
    sim::Simulator sim;
    std::unique_ptr<obs::ObsSession> observability;
    if (with_obs) {
      observability = std::make_unique<obs::ObsSession>(sim, obs::ObsSession::Options{});
    }
    app::SessionConfig config;
    config.seed = 11;
    config.channel.base_bler = 0.08;
    app::Session session{sim, config};
    session.Run(1s);
    struct Result {
      std::uint64_t events;
      std::vector<net::CaptureRecord> core_records;
    };
    return Result{sim.events_executed(), session.core_capture().log().ToVector()};
  };

  const auto plain = RunOnce(false);
  const auto traced = RunOnce(true);

  // The instrumented run must be byte-identical in behaviour: same event
  // count (hooks observe, never schedule) and the same packets at the
  // same local timestamps at the core tap.
  EXPECT_EQ(plain.events, traced.events);
  ASSERT_EQ(plain.core_records.size(), traced.core_records.size());
  for (std::size_t i = 0; i < plain.core_records.size(); ++i) {
    EXPECT_EQ(plain.core_records[i].packet_id, traced.core_records[i].packet_id);
    EXPECT_EQ(plain.core_records[i].local_ts, traced.core_records[i].local_ts);
    EXPECT_EQ(plain.core_records[i].size_bytes, traced.core_records[i].size_bytes);
  }

  // And with no sink installed, emitting is a no-op.
  ASSERT_FALSE(obs::trace_enabled());
  ASSERT_FALSE(obs::metrics_enabled());
  obs::TraceInstant(obs::Layer::kOther, "ignored", sim::kEpoch);
  obs::CountInc("ignored");
}

TEST(Obs, RegistryMechanics) {
  obs::MetricsRegistry m;
  m.Counter("a") += 3;
  m.Counter("a") += 2;
  m.Gauge("g") = 1.5;
  m.Stats("s").Add(1.0);
  m.Stats("s").Add(3.0);
  auto& h = m.Histogram("h", 0.0, 10.0, 5);
  h.Add(2.5);

  EXPECT_TRUE(m.HasCounter("a"));
  EXPECT_FALSE(m.HasCounter("b"));
  EXPECT_EQ(m.CounterValue("a"), 5u);
  EXPECT_EQ(m.CounterValue("b"), 0u);
  EXPECT_DOUBLE_EQ(m.GaugeValue("g"), 1.5);

  m.Snapshot(sim::kEpoch + sim::Duration{1000});
  EXPECT_EQ(m.sample_count(), 2u);  // one row per counter + gauge
  EXPECT_DOUBLE_EQ(m.stats().at("s").mean(), 2.0);
  EXPECT_EQ(m.histograms().at("h").count(), 1u);
}

TEST(Obs, SimulatorProfilingAndQueueDepth) {
  sim::Simulator sim;
  EXPECT_EQ(sim.queue_depth(), 0u);
  sim.set_profiling(true);
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i) {
    sim.ScheduleAfter(sim::Duration{i}, [] {});
  }
  EXPECT_EQ(sim.queue_depth(), static_cast<std::size_t>(kEvents));
  sim.RunAll();
  EXPECT_EQ(sim.queue_depth(), 0u);

  const sim::SimProfile& p = sim.profile();
  EXPECT_EQ(p.events, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(p.queue_high_water, static_cast<std::size_t>(kEvents));
  EXPECT_GT(p.run_wall_seconds, 0.0);
  EXPECT_GT(p.events_per_second(), 0.0);

  sim.ResetProfile();
  EXPECT_EQ(sim.profile().events, 0u);
}

TEST(Obs, SimHooksObserveEveryEvent) {
  struct CountingHooks final : sim::SimHooks {
    std::uint64_t executed = 0;
    std::uint64_t runs = 0;
    std::uint64_t events_reported = 0;
    void OnEventExecuted(sim::TimePoint, std::size_t) override { ++executed; }
    void OnRunCompleted(sim::TimePoint, sim::TimePoint, std::uint64_t events) override {
      ++runs;
      events_reported += events;
    }
  };

  sim::Simulator sim;
  CountingHooks hooks;
  sim.AddHooks(&hooks);
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAfter(sim::Duration{i * 10}, [] {});
  }
  sim.RunAll();
  EXPECT_EQ(hooks.executed, 100u);
  EXPECT_EQ(hooks.runs, 1u);
  EXPECT_EQ(hooks.events_reported, 100u);

  sim.ScheduleAfter(sim::Duration{1}, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(hooks.executed, 101u);
  EXPECT_TRUE(sim.RemoveHooks(&hooks));
  EXPECT_FALSE(sim.RemoveHooks(&hooks));  // already gone
}

TEST(Obs, SimHooksFanOutToEveryObserver) {
  struct CountingHooks final : sim::SimHooks {
    std::uint64_t executed = 0;
    std::uint64_t runs = 0;
    void OnEventExecuted(sim::TimePoint, std::size_t) override { ++executed; }
    void OnRunCompleted(sim::TimePoint, sim::TimePoint, std::uint64_t) override {
      ++runs;
    }
  };

  sim::Simulator sim;
  CountingHooks first;
  CountingHooks second;
  sim.AddHooks(&first);
  sim.AddHooks(&second);
  sim.AddHooks(&second);  // duplicate registration is a no-op
  EXPECT_EQ(sim.hooks().size(), 2u);

  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAfter(sim::Duration{i * 10}, [] {});
  }
  sim.RunAll();
  EXPECT_EQ(first.executed, 50u);
  EXPECT_EQ(second.executed, 50u);
  EXPECT_EQ(first.runs, 1u);
  EXPECT_EQ(second.runs, 1u);

  // Removing one observer must not disturb the other.
  EXPECT_TRUE(sim.RemoveHooks(&first));
  sim.ScheduleAfter(sim::Duration{1}, [] {});
  sim.RunAll();
  EXPECT_EQ(first.executed, 50u);
  EXPECT_EQ(second.executed, 51u);
  EXPECT_TRUE(sim.RemoveHooks(&second));
}

TEST(Obs, ProfilingSamplesCallbacks) {
  sim::Simulator sim;
  sim.set_profiling(true);
  sim.set_profile_sample_every(4);
  for (int i = 0; i < 100; ++i) sim.ScheduleAfter(sim::Duration{i}, [] {});
  sim.RunAll();
  const sim::SimProfile& p = sim.profile();
  EXPECT_EQ(p.events, 100u);
  EXPECT_EQ(p.callbacks_sampled, 25u);  // every 4th of 100
  // mean_callback_ns averages over sampled callbacks, not all events.
  if (p.callback_ns_total > 0) {
    EXPECT_GT(p.mean_callback_ns(), 0.0);
  }
}

TEST(TraceNames, SameLiteralInternsToSameId) {
  const obs::TraceName a{"test.interning.alpha"};
  const obs::TraceName b{"test.interning.alpha"};
  const obs::TraceName c{"test.interning.beta"};
  EXPECT_EQ(a.id, b.id);
  EXPECT_NE(a.id, c.id);
  EXPECT_NE(a.id, obs::kEmptyNameId);
}

TEST(TraceNames, NameTextRoundTrips) {
  const obs::TraceName name{"test.interning.roundtrip"};
  EXPECT_EQ(obs::TraceNameRegistry::Instance().NameOf(name.id),
            "test.interning.roundtrip");
  obs::TraceEvent e;
  e.name = name.id;
  EXPECT_EQ(e.name_text(), "test.interning.roundtrip");
}

TEST(TraceNames, PreInternedConstantsAreDistinct) {
  std::set<obs::NameId> ids{
      obs::names::kSimQueueDepth.id, obs::names::kSimRun.id,
      obs::names::kLinkDrop.id,      obs::names::kLinkTx.id,
      obs::names::kPktHop.id,        obs::names::kHarqChain.id,
      obs::names::kRanRlcBytes.id,   obs::names::kRanTransit.id,
      obs::names::kTbRtx.id,         obs::names::kTbTx.id,
      obs::names::kCcOveruse.id,     obs::names::kFrameEncoded.id,
  };
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_EQ(ids.count(obs::kEmptyNameId), 0u);
}

TEST(TraceRecorder, ChunkedStorageSurvivesBoundaries) {
  // 5000 events crosses the 2048-event chunk boundary twice; order, count,
  // and layer accounting must be unaffected.
  obs::TraceRecorder recorder;
  constexpr std::size_t kN = 5000;
  for (std::size_t i = 0; i < kN; ++i) {
    obs::TraceEvent e;
    e.phase = obs::TraceEvent::Phase::kInstant;
    e.layer = i % 2 == 0 ? obs::Layer::kNet : obs::Layer::kRan;
    e.name = obs::names::kPktHop.id;
    e.ts = sim::TimePoint{} + sim::Duration{static_cast<std::int64_t>(i)};
    e.id = i;
    recorder.Emit(e);
  }
  EXPECT_EQ(recorder.size(), kN);
  EXPECT_EQ(recorder.CountLayer(obs::Layer::kNet), kN / 2);
  EXPECT_EQ(recorder.CountLayer(obs::Layer::kRan), kN / 2);

  std::uint64_t expected_id = 0;
  recorder.ForEach([&](const obs::TraceEvent& e) { EXPECT_EQ(e.id, expected_id++); });
  EXPECT_EQ(expected_id, kN);

  std::ostringstream os;
  recorder.WriteJson(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);

  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  obs::TraceEvent again;
  again.layer = obs::Layer::kCc;
  recorder.Emit(again);
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.CountLayer(obs::Layer::kCc), 1u);
}

TEST(ChaosJson, FailureTextWithControlCharactersStaysValidJson) {
  fault::ChaosOutcome outcome;
  outcome.scenario = "quote\"and\\backslash";
  outcome.seed = 7;
  outcome.failure = "worker threw: line one\n\tline two";
  fault::ChaosMatrixResult result;
  result.base_seed = 42;
  result.seeds = 1;
  result.jobs = 1;
  result.outcomes.push_back(outcome);

  std::ostringstream os;
  fault::WriteChaosJson(os, result);
  const JsonValue doc = JsonParser{os.str()}.Parse();
  const JsonValue& parsed = doc.Find("outcomes")->array().at(0);
  EXPECT_EQ(parsed.Find("failure")->str(), outcome.failure);
  EXPECT_EQ(parsed.Find("scenario")->str(), outcome.scenario);
}

}  // namespace
