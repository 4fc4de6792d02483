// Release-mode-safe precondition guards.
//
// `assert` compiles away under NDEBUG, so a violated kernel precondition
// (popping an empty event queue, scheduling an empty callback) would run
// straight into undefined behaviour in optimized builds. ATHENA_CHECK
// stays armed in every build mode: it prints the failed expression with
// its location and aborts, turning latent UB into a loud, debuggable
// crash. Use it for cheap, load-bearing preconditions on hot-path entry
// points; keep plain `assert` for expensive internal invariants.
//
// Supervised execution (src/resilience/, parallel sweeps): abort() on a
// worker thread takes the whole process — and every sibling run — down
// with it. A scope that can contain the blast radius installs
// ScopedCheckThrow, which converts a violated check on *that thread*
// into a CheckViolation exception (still printed loudly first). The
// default, and anything outside such a scope, still aborts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace athena::sim {

/// A violated ATHENA_CHECK captured by ScopedCheckThrow: the run that
/// tripped it is poisoned and must be abandoned, but the process (and
/// any sibling runs) may keep going.
class CheckViolation : public std::logic_error {
 public:
  explicit CheckViolation(const std::string& what) : std::logic_error(what) {}
};

/// A deliberate crash (crash-point testing): a supervised process or a
/// shard worker dying on purpose. A supervisor restores after it; it is
/// neither a bad checkpoint nor a poisoned run.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Per-thread: when true, a failed check throws instead of aborting.
inline thread_local bool g_check_throws = false;

[[noreturn]] inline void CheckFailed(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "ATHENA_CHECK failed: %s at %s:%d — %s\n", expr, file, line, msg);
  std::fflush(stderr);
  if (g_check_throws) {
    std::string what = "ATHENA_CHECK failed: ";
    what += expr;
    what += " at ";
    what += file;
    what += ':';
    what += std::to_string(line);
    what += " — ";
    what += msg;
    throw CheckViolation(what);
  }
  std::abort();
}

}  // namespace detail

/// RAII: within this scope (and thread), a violated ATHENA_CHECK throws
/// CheckViolation instead of aborting the process. Used by the chaos
/// harness and the resilience supervisor so one poisoned run is reported
/// as a failed run instead of killing every sibling sweep job.
class ScopedCheckThrow {
 public:
  ScopedCheckThrow() : prev_(detail::g_check_throws) { detail::g_check_throws = true; }
  ~ScopedCheckThrow() { detail::g_check_throws = prev_; }

  ScopedCheckThrow(const ScopedCheckThrow&) = delete;
  ScopedCheckThrow& operator=(const ScopedCheckThrow&) = delete;

 private:
  bool prev_;
};

}  // namespace athena::sim

/// Fatal unless `cond` holds — in debug AND release builds. `msg` should
/// say what contract the caller broke, not restate the expression.
#define ATHENA_CHECK(cond, msg)                                                       \
  (static_cast<bool>(cond)                                                            \
       ? static_cast<void>(0)                                                         \
       : ::athena::sim::detail::CheckFailed(#cond, __FILE__, __LINE__, (msg)))
