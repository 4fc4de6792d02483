// Sharded-world scaling baseline, written to BENCH_world.json (path =
// argv[1], default "BENCH_world.json"; pass --smoke for the reduced CI
// sizing):
//
// Runs the same 512-UE, 8-cell, 2-virtual-second world at 1, 2, and 8
// shards and records, per run: measured wall time, total busy time
// (Σ per-shard per-window busy seconds from BusyRecorder), the modeled
// critical path (Σ_k max_s busy — the wall time an S-core host would
// see), the world digest, and the conservation ledger.
//
// Two speedup numbers are reported, deliberately separated:
//
//   - `measured_wall` — wall(1 shard) / wall(S shards) on THIS host.
//     On a machine with fewer cores than shards this is ~1 or below
//     (S workers time-slice one core and pay the barrier tax), which
//     is the honest number for that hardware, not a failure.
//   - `modeled` — busy(1 shard) / critical_path(S shards). Busy time
//     excludes barrier waits and scheduler noise, so this is the
//     scaling the shard decomposition itself achieves: how evenly the
//     per-window work divides across shards. The ">=5x at 8 shards"
//     acceptance bound watches this number, and `hardware_concurrency`
//     is recorded alongside so a reader can tell which regime the
//     measured number came from. One timing sample swings it by 2x on
//     a shared host, so the sequential runs repeat, interleaved across
//     shard counts, and the medians divide; the quartiles are recorded.
//
// Digest identity across all three shard counts (and the byte-identity
// of the FleetReport JSON) is asserted, not just recorded — a scaling
// win that changes the answer is a bug, not a result.
//
// The `memory` block records the process's peak RSS after one 1-shard
// sequential run, then again after one four times as long (8 s at full
// sizing): how world memory grows with virtual time. Both readings are
// taken before any threaded run, whose per-thread malloc arenas would
// keep their peak, so they match a process that runs one world alone.
// The file is stamped with the build type and the git revision (pass
// --git-rev=REV; bench/run_bench_world.sh does).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resilience/world_supervisor.hpp"
#include "sim/wall_clock.hpp"
#include "world/engine.hpp"

namespace {

using namespace athena;

world::WorldConfig BaseConfig(bool smoke) {
  world::WorldConfig config;
  config.seed = 42;
  config.ues = smoke ? 64 : 512;
  config.cells = 8;
  config.duration = sim::Duration{std::chrono::milliseconds{smoke ? 500 : 2000}};
  config.handover_every = 16;  // a migrating slice keeps the mailboxes honest
  config.scenario = "bench-world";
  return config;
}

struct RunRecord {
  std::size_t shards = 0;
  bool threaded = false;
  world::WorldResult result;
};

RunRecord RunAt(const world::WorldConfig& base, std::size_t shards, bool threaded) {
  world::WorldConfig config = base;
  config.shards = shards;
  config.threaded = threaded;
  world::WorldEngine engine{std::move(config)};
  RunRecord record;
  record.shards = shards;
  record.threaded = threaded;
  record.result = engine.Run();
  return record;
}

/// Peak resident set of this process so far, in MB (ru_maxrss is KiB).
double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Linear-interpolated quartiles of `samples` (non-empty).
Quartiles QuartilesOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

std::string QuartilesJson(const Quartiles& q) {
  std::ostringstream os;
  os << "{\"q1\": " << q.q1 << ", \"median\": " << q.median << ", \"q3\": " << q.q3
     << "}";
  return os.str();
}

std::string HexDigest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string{buf};
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_world.json";
  bool smoke = false;
  std::string git_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--git-rev=", 0) == 0) {
      git_rev = arg.substr(std::strlen("--git-rev="));
    } else {
      out_path = arg;
    }
  }

  const world::WorldConfig base = BaseConfig(smoke);
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "world: " << base.ues << " UEs, " << base.cells << " cells, "
            << base.duration.count() / 1000 << " ms virtual, host concurrency "
            << hw << '\n';

  // Memory first, before any thread starts: peak RSS after one 1-shard
  // sequential run (which doubles as the untimed warmup, so allocator
  // growth lands outside every clock), then after one four times as long.
  (void)RunAt(base, 1, /*threaded=*/false);
  const double peak_rss_mb_short = PeakRssMb();
  world::WorldConfig long_config = base;
  long_config.duration = 4 * base.duration;
  const RunRecord long_run = RunAt(long_config, 1, /*threaded=*/false);
  const double peak_rss_mb_long = PeakRssMb();
  std::cout << "  peak RSS " << peak_rss_mb_short << " MB after a "
            << base.duration.count() / 1000 << " ms 1-shard run, " << peak_rss_mb_long
            << " MB after a " << long_config.duration.count() / 1000
            << " ms one (wall " << long_run.result.wall_seconds << " s)\n";

  // Each shard count runs twice: threaded (the production path — digest
  // identity and the measured wall number) and sequential (the same
  // window loop round-robin on one thread — the clean busy measurement
  // the modeled number needs: a worker that gets scheduled out
  // mid-window on an oversubscribed host would otherwise book its
  // preemption as "busy" and inflate the critical path).
  struct ShardPlan {
    std::size_t shards;
    bool threaded;
  };
  constexpr std::array<ShardPlan, 5> kPlans{{
      {1, false}, {2, true}, {2, false}, {8, true}, {8, false}}};
  std::vector<RunRecord> runs;
  for (const ShardPlan plan : kPlans) {
    runs.push_back(RunAt(base, plan.shards, plan.threaded));
    const RunRecord& r = runs.back();
    std::cout << "  " << r.shards << " shard(s) "
              << (r.threaded ? "threaded  " : "sequential") << ": wall "
              << r.result.wall_seconds << " s, busy " << r.result.busy_seconds
              << " s, critical path " << r.result.critical_path_seconds
              << " s, digest " << HexDigest(r.result.digest) << '\n';
  }

  // Fault-tolerance numbers: one supervised 8-shard run with a mid-run
  // shard kill. Records the snapshot cost (serialized size + serialize
  // wall time) and the recovery cost (replay seconds back to the
  // restore boundary), and asserts the recovered digest matches the
  // uninterrupted oracle.
  resilience::WorldSupervisedOutcome supervised;
  double snapshot_serialize_seconds = 0.0;
  {
    world::WorldConfig config = base;
    config.shards = 8;
    config.threaded = true;
    resilience::WorldSupervisorOptions options;
    options.checkpoint_every_windows = 64;
    options.on_checkpoint = [&](const resilience::Checkpoint& snapshot) {
      const auto t0 = sim::WallClock::now();
      std::vector<std::uint8_t> bytes;
      snapshot.Serialize(bytes);
      snapshot_serialize_seconds = sim::SecondsSince(t0);
    };
    resilience::WorldFaultSpec faults;
    faults.crash_shard = 1;  // window derived from the seed
    resilience::WorldSupervisor supervisor{std::move(config), options};
    supervised = supervisor.Run(faults);
    std::cout << "  8 shard(s) supervised : crashes " << supervised.crashes
              << ", checkpoints " << supervised.checkpoints_taken << " ("
              << supervised.last_snapshot_bytes << " B latest, serialize "
              << snapshot_serialize_seconds << " s), restore replay "
              << supervised.restore_replay_seconds << " s, digest "
              << HexDigest(supervised.result.digest) << '\n';
  }

  const auto find = [&](std::size_t shards, bool threaded) -> const RunRecord& {
    for (const RunRecord& r : runs) {
      if (r.shards == shards && r.threaded == threaded) return r;
    }
    std::abort();
  };

  // The modeled speedups' samples: the plans' sequential runs, then
  // more 1-, 2- and 8-shard sequential runs, interleaved so host drift
  // hits every shard count alike.
  const std::size_t repetitions = smoke ? 3 : 7;
  constexpr std::array<std::size_t, 2> kModeled{2, 8};
  std::vector<RunRecord> repeats;
  std::vector<double> busy_1{find(1, false).result.busy_seconds};
  std::map<std::size_t, std::vector<double>> critical;  // by shard count
  for (const std::size_t shards : kModeled) {
    critical[shards].push_back(find(shards, false).result.critical_path_seconds);
  }
  for (std::size_t i = 1; i < repetitions; ++i) {
    repeats.push_back(RunAt(base, 1, /*threaded=*/false));
    busy_1.push_back(repeats.back().result.busy_seconds);
    for (const std::size_t shards : kModeled) {
      repeats.push_back(RunAt(base, shards, /*threaded=*/false));
      critical[shards].push_back(repeats.back().result.critical_path_seconds);
    }
  }
  std::vector<double> speedups_8;  // each interleaved round's own ratio
  for (std::size_t i = 0; i < repetitions; ++i) {
    speedups_8.push_back(critical[8][i] > 0.0 ? busy_1[i] / critical[8][i] : 0.0);
  }
  const Quartiles busy_1_q = QuartilesOf(busy_1);
  std::cout << "  " << repetitions << " interleaved 1-/2-/8-shard sequential rounds: "
            << "busy(1) median " << busy_1_q.median << " s, critical path(8) median "
            << QuartilesOf(critical[8]).median << " s\n";

  const RunRecord& serial = runs.front();
  bool conservation_ok = true;
  bool digest_identical = true;
  bool fleet_identical = true;
  for (const std::vector<RunRecord>* all : {&runs, &repeats}) {
    for (const RunRecord& r : *all) {
      conservation_ok = conservation_ok && r.result.conservation_ok;
      digest_identical = digest_identical && r.result.digest == serial.result.digest;
      fleet_identical =
          fleet_identical && r.result.fleet_json == serial.result.fleet_json;
    }
  }

  const auto modeled = [&](std::size_t shards) {
    const double path = QuartilesOf(critical[shards]).median;
    return path > 0.0 ? busy_1_q.median / path : 0.0;
  };
  const auto measured = [&](std::size_t shards) {
    const RunRecord& r = find(shards, /*threaded=*/true);
    return r.result.wall_seconds > 0.0
               ? serial.result.wall_seconds / r.result.wall_seconds
               : 0.0;
  };
  const double target = 5.0;
  const double modeled_at_8 = modeled(8);
  const bool recovered_identical =
      supervised.completed && supervised.result.digest == serial.result.digest &&
      supervised.result.fleet_json == serial.result.fleet_json;
  const bool met = digest_identical && fleet_identical && conservation_ok &&
                   recovered_identical && modeled_at_8 >= target;

  std::ofstream os{out_path};
  if (!os) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  os << "{\n";
  os << "  \"config\": {\n";
  os << "    \"ues\": " << base.ues << ",\n";
  os << "    \"cells\": " << base.cells << ",\n";
  os << "    \"virtual_ms\": " << base.duration.count() / 1000 << ",\n";
  os << "    \"handover_every\": " << base.handover_every << ",\n";
  os << "    \"seed\": " << base.seed << ",\n";
  os << "    \"smoke\": " << (smoke ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"build_type\": \"" << ATHENA_BUILD_TYPE << "\",\n";
  os << "  \"git_rev\": \"" << git_rev << "\",\n";
  os << "  \"hardware_concurrency\": " << hw << ",\n";
  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << "    {\"shards\": " << r.shards << ", \"threaded\": "
       << (r.threaded ? "true" : "false")
       << ", \"wall_seconds\": " << r.result.wall_seconds
       << ", \"busy_seconds\": " << r.result.busy_seconds
       << ", \"critical_path_seconds\": " << r.result.critical_path_seconds
       << ", \"windows\": " << r.result.windows
       << ", \"events\": " << r.result.events_executed
       << ", \"mailbox_messages\": " << r.result.messages_delivered
       << ", \"handovers\": " << r.result.handovers
       << ", \"offered\": " << r.result.offered
       << ", \"delivered\": " << r.result.delivered
       << ", \"digest\": \"" << HexDigest(r.result.digest) << "\""
       << ", \"conservation_ok\": "
       << (r.result.conservation_ok ? "true" : "false") << "}"
       << (i + 1 < runs.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << "  \"digest_identical_across_shard_counts\": "
     << (digest_identical ? "true" : "false") << ",\n";
  os << "  \"fleet_report_byte_identical\": "
     << (fleet_identical ? "true" : "false") << ",\n";
  os << "  \"resilience\": {\n";
  os << "    \"checkpoint_every_windows\": 64,\n";
  os << "    \"crashes\": " << supervised.crashes << ",\n";
  os << "    \"restarts\": " << supervised.restarts << ",\n";
  os << "    \"checkpoints_taken\": " << supervised.checkpoints_taken << ",\n";
  os << "    \"checkpoint_bytes\": " << supervised.last_snapshot_bytes << ",\n";
  os << "    \"checkpoint_serialize_seconds\": " << snapshot_serialize_seconds
     << ",\n";
  os << "    \"restore_replay_seconds\": " << supervised.restore_replay_seconds
     << ",\n";
  os << "    \"recovered_digest_matches_oracle\": "
     << (recovered_identical ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"memory\": {\n";
  os << "    \"peak_rss_mb\": " << peak_rss_mb_short << ",\n";
  os << "    \"long_run_virtual_ms\": " << long_config.duration.count() / 1000 << ",\n";
  os << "    \"long_run_wall_seconds\": " << long_run.result.wall_seconds << ",\n";
  os << "    \"long_run_events\": " << long_run.result.events_executed << ",\n";
  os << "    \"peak_rss_mb_after_long_run\": " << peak_rss_mb_long << ",\n";
  os << "    \"note\": \"process peak RSS (ru_maxrss), read before any threaded run: "
        "after one 1-shard sequential run of virtual_ms, then after one of "
        "long_run_virtual_ms\"\n";
  os << "  },\n";
  os << "  \"speedup\": {\n";
  for (const std::size_t shards : kModeled) {
    os << "    \"modeled_" << shards << "_shards\": " << modeled(shards)
       << ",\n";
    os << "    \"measured_wall_" << shards << "_shards\": " << measured(shards)
       << ",\n";
  }
  os << "    \"modeled_repetitions\": " << repetitions << ",\n";
  os << "    \"busy_1_shard_seconds\": " << QuartilesJson(busy_1_q) << ",\n";
  for (const std::size_t shards : kModeled) {
    os << "    \"critical_path_" << shards
       << "_shards_seconds\": " << QuartilesJson(QuartilesOf(critical[shards])) << ",\n";
  }
  os << "    \"modeled_8_shards_per_round\": " << QuartilesJson(QuartilesOf(speedups_8))
     << ",\n";
  os << "    \"note\": \"modeled = median busy(1) / median critical_path(S) over "
        "modeled_repetitions interleaved rounds of sequential runs (clean busy, no "
        "preemption booked; quartiles above, per_round = each round's own ratio), the "
        "scaling the shard decomposition achieves on an S-core host; measured_wall is "
        "the threaded runs on this host, see hardware_concurrency\"\n";
  os << "  },\n";
  os << "  \"acceptance\": {\n";
  os << "    \"target_modeled_speedup_at_8_shards\": " << target << ",\n";
  os << "    \"modeled_speedup_at_8_shards\": " << modeled_at_8 << ",\n";
  os << "    \"met\": " << (met ? "true" : "false") << "\n";
  os << "  }\n";
  os << "}\n";

  std::cout << "digest identity: " << (digest_identical ? "PASS" : "FAIL")
            << ", fleet bytes: " << (fleet_identical ? "PASS" : "FAIL")
            << ", conservation: " << (conservation_ok ? "PASS" : "FAIL")
            << ", kill/restore recovery: " << (recovered_identical ? "PASS" : "FAIL")
            << '\n';
  std::cout << "modeled speedup at 8 shards: x" << modeled_at_8 << " (target x"
            << target << ", " << (modeled_at_8 >= target ? "met" : "MISSED")
            << ")\n";
  std::cout << "wrote " << out_path << '\n';

  if (!digest_identical || !fleet_identical || !conservation_ok ||
      !recovered_identical) {
    std::cerr << "ERROR: sharded or recovered runs are not byte-identical to "
                 "the oracle\n";
    return 1;
  }
  return 0;
}
