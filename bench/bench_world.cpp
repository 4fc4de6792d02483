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
//     measured number came from.
//
// Digest identity across all three shard counts (and the byte-identity
// of the FleetReport JSON) is asserted, not just recorded — a scaling
// win that changes the answer is a bug, not a result.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const world::WorldConfig base = BaseConfig(smoke);
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "world: " << base.ues << " UEs, " << base.cells << " cells, "
            << base.duration.count() / 1000 << " ms virtual, host concurrency "
            << hw << '\n';

  // Untimed warmup so allocator growth lands outside every clock.
  (void)RunAt(base, 1, /*threaded=*/false);

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

  const RunRecord& serial = runs.front();
  bool conservation_ok = true;
  bool digest_identical = true;
  bool fleet_identical = true;
  for (const RunRecord& r : runs) {
    conservation_ok = conservation_ok && r.result.conservation_ok;
    digest_identical = digest_identical && r.result.digest == serial.result.digest;
    fleet_identical =
        fleet_identical && r.result.fleet_json == serial.result.fleet_json;
  }

  const auto find = [&](std::size_t shards, bool threaded) -> const RunRecord& {
    for (const RunRecord& r : runs) {
      if (r.shards == shards && r.threaded == threaded) return r;
    }
    std::abort();
  };
  const auto modeled = [&](std::size_t shards) {
    const RunRecord& r = find(shards, /*threaded=*/false);
    return r.result.critical_path_seconds > 0.0
               ? serial.result.busy_seconds / r.result.critical_path_seconds
               : 0.0;
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
  os << "  \"speedup\": {\n";
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    os << "    \"modeled_" << shards << "_shards\": " << modeled(shards)
       << ",\n";
    os << "    \"measured_wall_" << shards << "_shards\": " << measured(shards)
       << ",\n";
  }
  os << "    \"note\": \"modeled = busy(1)/critical_path(S) from the "
        "sequential runs (clean busy, no preemption booked), the scaling the "
        "shard decomposition achieves on an S-core host; measured_wall is "
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
