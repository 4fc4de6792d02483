// Output digests pinned from the simulator at the canonical seed. Every
// benchmark run reproduces them (athena_perfbench --print-pins prints the
// current values); a mismatch fails the run.
#pragma once

#include <array>
#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

inline constexpr std::uint64_t kCanonicalSeed = 42;

/// session_5g: FNV-1a of each session's rendered report, sessions
/// DeriveSeed(42, 0..31).
inline constexpr std::array<std::uint64_t, kSessionsPerRep> kPinnedSessionReports{
    0xa37daf0c0477ab14ULL, 0x0edd8994f6f24696ULL, 0x1c01aa740350b924ULL,
    0xa11c0a49fafcf02dULL, 0x8465c11086e19d08ULL, 0xce17c25063fdd48bULL,
    0x797573b6ac3c6840ULL, 0xbb90aed5125c898fULL, 0x063c917cb0e63e0eULL,
    0x4878a6e330d3b38bULL, 0x44cdcc6113af9a2bULL, 0x5f65ff429d061d1cULL,
    0xf4167f33b4492cd7ULL, 0xedfa03c80c2ef2bfULL, 0xddcb8d3d7e4b86acULL,
    0x5ca3d7090e073314ULL, 0xde3daa30e00c619bULL, 0x9c13f45b26a013f2ULL,
    0xf88af8609a7e4655ULL, 0x773124a2550f6c7eULL, 0xfa91325eac7a3d3aULL,
    0x84af2408f19b0a96ULL, 0xdfba57ed21dcb882ULL, 0xa8dc4fc97607b61eULL,
    0xfef382e75002dd96ULL, 0x348568a897cf7668ULL, 0xec910277ca06b434ULL,
    0xe04627b8f351eb1bULL, 0xf9a12997ed1ae2a7ULL, 0x196f4841c0ef3481ULL,
    0x56ee10c8c5025bccULL, 0xb8934581dfe277a1ULL,
};

/// session_supervised: unkilled final_digest / report_digest of sessions
/// DeriveSeed(42, 0..3).
struct SupervisedPin {
  std::uint64_t final_digest = 0;
  std::uint64_t report_digest = 0;
};
inline constexpr std::array<SupervisedPin, kSupervisedPerRep> kPinnedSupervised{{
    {0x8659f31f8027bff9ULL, 0x4a2bcec4adeaa418ULL},
    {0x503a0239755bdcd0ULL, 0x130b9be8ff23e72eULL},
    {0x64244037b8bbc172ULL, 0x52ffe56db260472eULL},
    {0xaf12f065bc78eab0ULL, 0x2e541bfa864ec97bULL},
}};

/// fleet_sweep: FNV-1a of the FleetReport JSON bytes (the same at 1 and
/// 4 jobs).
inline constexpr std::uint64_t kPinnedFleetReport = 0xc98f009b8d8e5462ULL;

/// world_sharded: the world digest and FNV-1a of its FleetReport JSON
/// (the same at 1 and 4 shards).
inline constexpr std::uint64_t kPinnedWorldDigest = 0x1c03509970c5bb20ULL;
inline constexpr std::uint64_t kPinnedWorldFleet = 0x0d683b77734d0491ULL;

}  // namespace perfbench
