//===- bench/BenchCommon.h - Shared benchmark-harness helpers --*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: a scale factor so the full
/// evaluation can be shrunk (AU_BENCH_SCALE=0.2 for smoke runs) or grown
/// (AU_BENCH_SCALE=4 for tighter numbers), a banner printer, and the machine
/// fields every JSON row records.
///
//===----------------------------------------------------------------------===//

#ifndef AU_BENCH_BENCHCOMMON_H
#define AU_BENCH_BENCHCOMMON_H

#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace au {
namespace bench {

/// Multiplier applied to training budgets; from AU_BENCH_SCALE (default 1).
inline double benchScale() {
  const char *Env = std::getenv("AU_BENCH_SCALE");
  if (!Env)
    return 1.0;
  double V = std::atof(Env);
  return V > 0 ? V : 1.0;
}

/// Scales an integer budget, keeping at least \p Min.
inline long scaled(long Budget, long Min = 1) {
  long V = static_cast<long>(Budget * benchScale());
  return V < Min ? Min : V;
}

/// Prints a section banner.
inline void banner(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

/// The JSON fields naming where a row ran: the global pool's thread count
/// (AU_NN_THREADS, calling thread included) and the machine's hardware
/// threads.
inline std::string machineFields() {
  return "\"threads\": " + std::to_string(ThreadPool::global().numThreads()) +
         ", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency());
}

} // namespace bench
} // namespace au

#endif // AU_BENCH_BENCHCOMMON_H
