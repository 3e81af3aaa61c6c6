//===- perfbench/cpp/Bench.h - Workload interface and loop stats -*- C++ -*-===//
//
// Each workload is one of the paper's end-to-end loops written as an
// autonomized program over the runtime's public layer functions. It builds
// its state in setup(), runs its closed loop for a wall-clock budget in
// run(), and checks its own outputs as it goes.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

/// One timed loop's samples and outcome counts. Memory stays flat however
/// long the loop runs, so the benchmark's own bookkeeping does not grow the
/// peak RSS it reports.
struct LoopStats {
  /// At most this many latency samples are kept: a uniform sample of all
  /// of them (reservoir sampling), plenty for a p99.
  static constexpr size_t MaxLatSamples = 1 << 16;

  std::vector<double> LatUs; ///< Latency samples of the loop's "op".
  long LatSeen = 0;          ///< Latency samples offered.
  std::vector<double> Rates; ///< Work per second of each wall-time window.
  long Iterations = 0;
  double IterSumS = 0.0;     ///< Summed iteration time.
  double WallS = 0.0;        ///< Loops' wall time minus output checks.
  long Attempted = 0;        ///< Operations whose output was checked.
  long Failed = 0;           ///< ... and found wrong.

  void addIter(int64_t Ns, double Units) {
    double S = static_cast<double>(Ns) * 1e-9;
    ++Iterations;
    IterSumS += S;
    WinS += S;
    WinUnits += Units;
  }
  void addLatency(double Us) {
    if (LatUs.size() < MaxLatSamples) {
      LatUs.push_back(Us);
    } else {
      // Algorithm R: keep the new sample with probability Max / Seen.
      Pick ^= Pick << 13;
      Pick ^= Pick >> 7;
      Pick ^= Pick << 17;
      uint64_t Slot = Pick % static_cast<uint64_t>(LatSeen + 1);
      if (Slot < MaxLatSamples)
        LatUs[Slot] = Us;
    }
    ++LatSeen;
  }
  void closeWindow() {
    if (WinS > 0.0)
      Rates.push_back(WinUnits / WinS);
    WinS = WinUnits = 0.0;
  }
  void check(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }

private:
  double WinS = 0.0, WinUnits = 0.0;
  uint64_t Pick = 0x9e3779b97f4a7c15ull;
};

/// Windows a timed loop's wall time is cut into for work per second.
inline constexpr int RateWindows = 20;

/// Runs a timed loop: calls \p Iter until \p Seconds of wall time passed.
/// \p Iter returns the nanoseconds its checks took, which are left out of
/// the loop's wall time.
template <typename F> void timedLoop(double Seconds, LoopStats &L, F Iter) {
  int64_t Start = nowNs();
  int64_t Budget = static_cast<int64_t>(Seconds * 1e9);
  int64_t Window = Budget / RateWindows, NextWindow = Start + Window;
  int64_t CheckNs = 0, Now = Start;
  while (Now - Start < Budget) {
    CheckNs += Iter();
    Now = nowNs();
    if (Now >= NextWindow) {
      L.closeWindow();
      NextWindow += Window;
    }
  }
  L.closeWindow();
  L.WallS += static_cast<double>(Now - Start - CheckNs) * 1e-9;
}

/// Named values a workload reports beside the loop samples.
using Values = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds fresh state from the seed, dropping any earlier state.
  virtual void setup() = 0;

  /// Runs the closed loop for \p Seconds, continuing from the current state.
  virtual void run(double Seconds, LoopStats &L) = 0;

  /// End-of-run checks over the whole run (schedules, loss trend).
  virtual void finish(LoopStats &L) = 0;

  /// Floating-point work of the benchmark's NN calls so far, from layer
  /// shapes (multiply-adds x 2; a backward pass counts as two forwards).
  virtual double flops() = 0;

  /// Per-layer values only the workload knows (train steps, losses, ...).
  virtual void layerValues(Values &V) = 0;

  /// The workload's own names for the generic loop numbers, as
  /// {own name, generic name} pairs, e.g. {"env_steps_per_s", "work_per_s"}.
  virtual void aliases(std::vector<std::pair<std::string, std::string>> &A) = 0;

  /// Plain, un-autonomized cost of one iteration in ns (0 when the
  /// workload has no plain counterpart).
  virtual double plainIterNs() { return 0.0; }

  /// Trace streams: 1 + lanes of a lockstep fleet.
  virtual int streams() const { return 1; }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// serve_tenants only: corrupt the reply of this call before checking it
  /// (-1 = never). Used by the self-test to show a wrong reply is caught.
  long InjectWrongReply = -1;
};

std::unique_ptr<Workload> makeFlappyLoop(const Options &O);
std::unique_ptr<Workload> makeFlappyFleet(const Options &O);
std::unique_ptr<Workload> makeServeTenants(const Options &O);
std::unique_ptr<Workload> makeCannySl(const Options &O);

/// Linear-interpolated percentile \p P in [0, 100] (0 for no samples).
double percentile(std::vector<double> Xs, double P);

/// Derives independent 64-bit streams from the workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// FLOPs of one forward row through a dense stack In -> Hidden... -> Out.
double denseFlops(int In, const std::vector<int> &Hidden, int Out);

} // namespace pb

#endif // PERFBENCH_BENCH_H
