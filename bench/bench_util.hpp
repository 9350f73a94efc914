// Shared helpers for the reproduction benches: every bench prints its
// figure/table, a "paper vs measured" summary block and its claims, and
// exits non-zero after a missed claim, so ctest (label `paper`) fails
// when the reproduction drifts from the paper.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

namespace sttram::bench {

/// Set by the first claim() that misses; main returns exit_code().
inline bool g_claim_missed = false;

inline void heading(const std::string& id, const std::string& title) {
  std::cout << "\n================================================================\n"
            << id << " — " << title << '\n'
            << "================================================================\n";
}

/// One paper-vs-measured comparison row.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  const double rel =
      paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-44s paper %10.4g %-5s measured %10.4g %-5s (%+.1f %%)\n",
              what.c_str(), paper, unit.c_str(), measured, unit.c_str(),
              rel);
}

/// A reproduction claim on a simulated quantity: a miss fails the bench.
inline void claim(const std::string& what, bool holds) {
  std::printf("  %-60s [%s]\n", what.c_str(), holds ? "REPRODUCED" : "MISS");
  if (!holds) g_claim_missed = true;
}

/// A claim on host wall-clock time.  Its outcome is printed, marked, but
/// never fails the bench: timings depend on the host, the build type and
/// sanitizers, while simulated quantities do not.
inline void wall_clock_claim(const std::string& what, bool holds) {
  std::printf("  %-60s [%s] (wall clock)\n", what.c_str(),
              holds ? "REPRODUCED" : "MISS");
}

/// Host seconds since `start`, for the benches' throughput lines.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The bench's exit status: 1 once a claim() missed, else 0.
inline int exit_code() { return g_claim_missed ? 1 : 0; }

}  // namespace sttram::bench
