// Shared helpers for the experiment harnesses (one binary per paper
// table/figure).
//
// Environment knobs:
//   DAMPI_BENCH_QUICK=1   shrink scales so the whole suite runs fast
//   DAMPI_BENCH_PROCS=N   override the large-scale process count
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.hpp"
#include "common/strutil.hpp"

namespace dampi::bench {

inline bool quick_mode() {
  const char* v = std::getenv("DAMPI_BENCH_QUICK");
  return v != nullptr && v[0] != '0';
}

inline int env_procs(int full_default, int quick_default) {
  if (const char* v = std::getenv("DAMPI_BENCH_PROCS")) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return quick_mode() ? quick_default : full_default;
}

class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Standard experiment banner: what this binary reproduces and how to
/// read it.
inline void banner(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  if (quick_mode()) std::printf("(DAMPI_BENCH_QUICK=1: reduced scales)\n");
  std::printf("==============================================================\n\n");
}

}  // namespace dampi::bench
