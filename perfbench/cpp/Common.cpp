//===- perfbench/cpp/Common.cpp - Shared helpers -------------------------===//

#include "Bench.h"
#include "FlappyCommon.h"

#include "support/Rng.h"

#include <algorithm>
#include <memory>

using namespace pb;

double pb::percentile(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  double Pos = P / 100.0 * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * Frac;
}

uint64_t pb::mixSeed(uint64_t Seed, uint64_t Salt) {
  return au::Rng::stream(Seed, Salt).next();
}

double pb::denseFlops(int In, const std::vector<int> &Hidden, int Out) {
  double Macs = 0.0;
  int Prev = In;
  for (int H : Hidden) {
    Macs += static_cast<double>(Prev) * H;
    Prev = H;
  }
  Macs += static_cast<double>(Prev) * Out;
  return 2.0 * Macs;
}

double pb::plainFlappyTickNs(uint64_t Seed, int Envs, double Seconds) {
  using au::apps::FlappyEnv;
  uint64_t Level = flappyLevel(Seed);
  au::Rng Jitters(mixSeed(Seed, 13));
  au::Rng Player(mixSeed(Seed, 14));
  std::vector<std::unique_ptr<FlappyEnv>> Games;
  std::vector<int> EpSteps(static_cast<size_t>(Envs), 0);
  for (int E = 0; E < Envs; ++E) {
    Games.push_back(std::make_unique<FlappyEnv>());
    Games.back()->reset(flappySeed(Level, Jitters.uniformInt(256)));
  }
  constexpr int Block = 2000;
  std::vector<double> BlockNs;
  int64_t Start = nowNs();
  while (nowNs() - Start < static_cast<int64_t>(Seconds * 1e9)) {
    int64_t T0 = nowNs();
    for (int I = 0; I < Block; ++I)
      for (int E = 0; E < Envs; ++E) {
        FlappyEnv &G = *Games[static_cast<size_t>(E)];
        G.step(G.heuristicAction(Player));
        if (G.terminal() ||
            ++EpSteps[static_cast<size_t>(E)] >= FlappyMaxEpisodeSteps) {
          G.reset(flappySeed(Level, Jitters.uniformInt(256)));
          EpSteps[static_cast<size_t>(E)] = 0;
        }
      }
    BlockNs.push_back(static_cast<double>(nowNs() - T0) / Block);
  }
  return percentile(BlockNs, 50);
}
