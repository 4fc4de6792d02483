// Long-run resilience soak: one session driven for many times the
// normal test length under checkpoint cadence and a memory budget,
// reporting peak RSS, overload-governor shed rates, and checkpoint
// size/cost (BENCH_resilience.json). The numbers this pins:
//
//   - memory stays bounded at soak length (peak RSS, bounded input bytes),
//   - checkpoints stay cheap relative to the run (serialize ms, bytes),
//   - the pipeline still correlates at the end of a long session.
//
// Usage: bench_resilience [--duration=S] [--seed=N] [--budget=BYTES]
//          [--checkpoint-every=MS] [--out=FILE]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "resilience/checkpoint.hpp"
#include "sim/wall_clock.hpp"

namespace {

using namespace athena;

/// Reads a VmHWM/VmRSS-style line (kB) from /proc/self/status; 0 when
/// unavailable (non-Linux).
std::size_t ProcStatusKb(const std::string& key) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::size_t value = 0;
    for (const char c : line) {
      if (c >= '0' && c <= '9') value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
  }
  return 0;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_s = 100;  // 50x the 2 s session the test suite drives
  std::uint64_t seed = 42;
  std::size_t budget_bytes = 4'000'000;
  int checkpoint_every_ms = 2000;
  std::string out_path = "BENCH_resilience.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "duration", &value)) {
      duration_s = std::stoi(value);
    } else if (ParseFlag(arg, "seed", &value)) {
      seed = std::stoull(value);
    } else if (ParseFlag(arg, "budget", &value)) {
      budget_bytes = std::stoul(value);
    } else if (ParseFlag(arg, "checkpoint-every", &value)) {
      checkpoint_every_ms = std::stoi(value);
    } else if (ParseFlag(arg, "out", &value)) {
      out_path = value;
    } else {
      std::cerr << "unknown argument: " << arg << '\n';
      return 2;
    }
  }

  resilience::RunPlan plan;
  plan.config.seed = seed;
  plan.duration = std::chrono::seconds{duration_s};
  plan.checkpoint_every = std::chrono::milliseconds{checkpoint_every_ms};
  plan.budget.input_bytes = budget_bytes;

  // Checkpoint cost is measured at the source: every snapshot is
  // serialized (as the CLI's --checkpoint-out spill would) under a wall
  // clock.
  std::size_t checkpoints = 0;
  std::size_t last_bytes = 0;
  double serialize_ms_total = 0.0;
  plan.on_checkpoint = [&](const resilience::Checkpoint& c) {
    std::vector<std::uint8_t> buffer;
    const auto begin = sim::WallClock::now();
    c.Serialize(buffer);
    serialize_ms_total += sim::SecondsSince(begin) * 1e3;
    ++checkpoints;
    last_bytes = buffer.size();
  };

  std::cout << "soak: " << duration_s << " s virtual ("
            << duration_s / 2 << "x the 2 s test session), checkpoint every "
            << checkpoint_every_ms << " ms, input budget " << budget_bytes
            << " bytes\n";

  const auto wall_begin = sim::WallClock::now();
  resilience::CheckpointingDriver driver{plan};
  const resilience::RunOutcome outcome = driver.Run();
  const double wall_s = sim::SecondsSince(wall_begin);

  const std::size_t peak_rss_kb = ProcStatusKb("VmHWM");
  const std::size_t rss_kb = ProcStatusKb("VmRSS");
  const double mean_serialize_ms =
      checkpoints > 0 ? serialize_ms_total / static_cast<double>(checkpoints) : 0.0;
  const double shed_rate =
      static_cast<double>(outcome.shed.total()) / static_cast<double>(duration_s);

  std::cout << "wall: " << wall_s << " s, events: " << outcome.events_executed
            << ", packets correlated: " << outcome.packets_correlated << '\n'
            << "checkpoints: " << checkpoints << " (last " << last_bytes
            << " bytes, mean serialize " << mean_serialize_ms << " ms)\n"
            << "shed: " << outcome.shed.total() << " records ("
            << outcome.shed.capped() << " hard-capped, " << shed_rate
            << "/virtual-second)\n"
            << "peak RSS: " << peak_rss_kb << " kB\n";

  std::ofstream os{out_path};
  if (!os) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  os << "{\n"
     << "  \"bench\": \"resilience_soak\",\n"
     << "  \"seed\": " << seed << ",\n"
     << "  \"virtual_seconds\": " << duration_s << ",\n"
     << "  \"soak_factor_vs_2s_session\": " << duration_s / 2 << ",\n"
     << "  \"wall_seconds\": " << wall_s << ",\n"
     << "  \"events_executed\": " << outcome.events_executed << ",\n"
     << "  \"packets_correlated\": " << outcome.packets_correlated << ",\n"
     << "  \"checkpoints_taken\": " << checkpoints << ",\n"
     << "  \"checkpoint_bytes\": " << last_bytes << ",\n"
     << "  \"checkpoint_serialize_ms_mean\": " << mean_serialize_ms << ",\n"
     << "  \"input_budget_bytes\": " << budget_bytes << ",\n"
     << "  \"shed_total\": " << outcome.shed.total() << ",\n"
     << "  \"shed_capped\": " << outcome.shed.capped() << ",\n"
     << "  \"shed_icmp\": " << outcome.shed.icmp_shed << ",\n"
     << "  \"shed_padding_tb\": " << outcome.shed.padding_tb_shed << ",\n"
     << "  \"shed_per_virtual_second\": " << shed_rate << ",\n"
     << "  \"final_digest\": \"" << std::hex << outcome.final_digest << std::dec
     << "\",\n"
     << "  \"peak_rss_kb\": " << peak_rss_kb << ",\n"
     << "  \"rss_kb\": " << rss_kb << "\n"
     << "}\n";
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
