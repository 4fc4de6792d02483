#include "obs/metrics.hpp"

#include <atomic>
#include <ostream>

namespace athena::obs {

namespace {

std::atomic<std::uint64_t> g_next_registry_epoch{0};

}  // namespace

MetricsRegistry::MetricsRegistry()
    : epoch_(g_next_registry_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {}

namespace {

/// find-or-emplace with heterogeneous lookup (avoids a temporary
/// std::string on the hit path, which is the hot one).
template <typename Map, typename... Args>
auto& FindOrCreate(Map& map, std::string_view name, Args&&... args) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string{name}, typename Map::mapped_type{std::forward<Args>(args)...})
             .first;
  }
  return it->second;
}

}  // namespace

std::uint64_t& MetricsRegistry::Counter(std::string_view name) {
  return FindOrCreate(counters_, name, std::uint64_t{0});
}

double& MetricsRegistry::Gauge(std::string_view name) {
  return FindOrCreate(gauges_, name, 0.0);
}

stats::RunningStats& MetricsRegistry::Stats(std::string_view name) {
  return FindOrCreate(stats_, name);
}

stats::Histogram& MetricsRegistry::Histogram(std::string_view name, double lo, double hi,
                                             std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string{name}, stats::Histogram{lo, hi, bins}).first;
  }
  return it->second;
}

bool MetricsRegistry::HasCounter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::Snapshot(sim::TimePoint t) {
  for (const auto& [name, value] : counters_) {
    samples_.push_back(Sample{t, &name, static_cast<double>(value)});
  }
  for (const auto& [name, value] : gauges_) {
    samples_.push_back(Sample{t, &name, value});
  }
}

void MetricsRegistry::StartSampling(sim::Simulator& sim, sim::Duration period) {
  StopSampling();
  sampling_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim, period, [this, &sim] { Snapshot(sim.Now()); });
  sampling_timer_->Start();
}

void MetricsRegistry::StopSampling() { sampling_timer_.reset(); }

void MetricsRegistry::WriteCsv(std::ostream& os) const {
  os << "t_us,t_ms,metric,value\n";
  for (const Sample& s : samples_) {
    os << s.t.us() << ',' << s.t.ms() << ',' << *s.metric << ',' << s.value << '\n';
  }
}

}  // namespace athena::obs
