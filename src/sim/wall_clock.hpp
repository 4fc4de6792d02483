// One clock for every wall-time measurement (profiling, self-timing,
// benchmarks): monotonic physical time, never the simulator's virtual
// time (sim/time.hpp).
#pragma once

#include <chrono>

namespace athena::sim {

using WallClock = std::chrono::steady_clock;

}  // namespace athena::sim
