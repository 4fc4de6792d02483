#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Quartiles QuartilesOf(std::vector<double> samples) {
  Quartiles q;
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const auto ld = static_cast<long long>(samples.size());
  if (ld < 2) {
    q.q1 = q.median = q.q3 = samples[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = len + 1, cut i at the
  // rescaled position i*m/n with exact integer arithmetic.
  constexpr long long n = 4;
  const long long m = ld + 1;
  std::array<double, 3> cut{};
  for (long long i = 1; i < n; ++i) {
    long long j = i * m / n;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    cut[static_cast<std::size_t>(i - 1)] =
        (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  return q;
}

double RelativeSpread(const Quartiles& q) {
  return q.median != 0.0 ? (q.q3 - q.q1) / std::abs(q.median) : 0.0;
}

std::optional<TailPercentile> HighestTailPercentile(std::vector<double> samples) {
  constexpr std::array<double, 6> kLadder{50.0, 90.0, 95.0, 99.0, 99.9, 99.99};
  const std::size_t n = samples.size();
  std::optional<TailPercentile> best;
  std::sort(samples.begin(), samples.end());
  for (const double p : kLadder) {
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it; everything after that rank lies beyond the percentile.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || rank > n) continue;
    const std::size_t beyond = n - rank;
    if (beyond < 10) break;
    best = TailPercentile{p, samples[rank - 1], beyond};
  }
  return best;
}

WorldSplit SplitWorld(const athena::world::WorldResult& result) {
  WorldSplit split;
  split.loop_s = result.wall_seconds;
  const double shards = static_cast<double>(result.shards);
  const double capacity = shards * result.wall_seconds;
  split.barrier_wait_s = capacity - result.busy_seconds;
  split.imbalance = result.busy_seconds > 0.0
                        ? shards * result.critical_path_seconds / result.busy_seconds
                        : 0.0;
  split.parallel_eff = capacity > 0.0 ? result.busy_seconds / capacity : 0.0;
  return split;
}

std::uint64_t Offered(const athena::obs::pipeline::RingStats& stats) {
  return stats.pushed + stats.shed();
}

double FailFrac(const athena::obs::pipeline::RingStats& stats) {
  const std::uint64_t offered = Offered(stats);
  return offered > 0 ? static_cast<double>(stats.shed()) / static_cast<double>(offered)
                     : 0.0;
}

double ParallelEfficiency(double task_seconds_sum, unsigned jobs, double map_seconds) {
  const double capacity = static_cast<double>(jobs) * map_seconds;
  return capacity > 0.0 ? task_seconds_sum / capacity : 0.0;
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
