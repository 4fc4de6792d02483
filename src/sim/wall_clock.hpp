// One clock for every wall-time measurement (profiling, self-timing,
// benchmarks): monotonic physical time, never the simulator's virtual
// time (sim/time.hpp).
#pragma once

#include <chrono>

namespace athena::sim {

using WallClock = std::chrono::steady_clock;

/// Wall seconds elapsed since `t0`.
[[nodiscard]] inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

}  // namespace athena::sim
