//===- perfbench/cpp/FlappyCommon.h - Shared Flappy "All" set-up -*- C++ -*-===//
//
// The Flappy "All" variant both RL workloads drive: the five variables
// Algorithm 2 selects for Flappy, a {32, 32} DQN, and trainRl's level-seed
// layout (level in the high bits, per-episode jitter in the low byte).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FLAPPYCOMMON_H
#define PERFBENCH_FLAPPYCOMMON_H

#include "Bench.h"

#include "apps/flappy/Flappy.h"
#include "core/Engine.h"
#include "nn/QLearner.h"

#include <cassert>
#include <string>
#include <vector>

namespace pb {

inline const std::vector<std::string> &flappyFeatureNames() {
  static const std::vector<std::string> Names = {"birdY", "birdV", "pipeDx",
                                                 "gap1Y", "diffY"};
  return Names;
}

inline const std::vector<int> FlappyHidden = {32, 32};
inline constexpr int FlappyActions = 2;
inline constexpr int FlappyMaxEpisodeSteps = 400;

inline uint64_t flappySeed(uint64_t Level, uint64_t Jitter) {
  return (Level << 8) | (Jitter & 0xff);
}

/// Level layout for a workload seed (kept below 2^48 so the jitter byte
/// fits beside it).
inline uint64_t flappyLevel(uint64_t Seed) { return mixSeed(Seed, 11) >> 16; }

/// Configures the Flappy DQN through \p S (au_config) with schedule \p Q.
inline au::RlModel *configFlappyModel(au::Session &S, uint64_t Seed,
                                      const au::nn::QConfig &Q) {
  au::ModelConfig C;
  C.Name = "flappybird_all";
  C.Type = au::ModelType::DNN;
  C.Algo = au::Algorithm::QLearn;
  C.HiddenLayers = FlappyHidden;
  C.Seed = mixSeed(Seed, 12) >> 32;
  auto *M = static_cast<au::RlModel *>(S.config(C));
  M->setQConfig(Q);
  return M;
}

/// Positions of the selected variables within Env.features().
inline std::vector<size_t> flappyFeatureIdx(const au::apps::FlappyEnv &Env) {
  std::vector<au::apps::Feature> Fs = Env.features();
  std::vector<size_t> Idx;
  for (const std::string &Name : flappyFeatureNames()) {
    size_t I = 0;
    while (I != Fs.size() && Fs[I].first != Name)
      ++I;
    assert(I != Fs.size() && "Flappy no longer exposes a selected variable");
    Idx.push_back(I);
  }
  return Idx;
}

/// FLOPs of one forward row through the Flappy DQN.
inline double flappyRowFlops() {
  return denseFlops(static_cast<int>(flappyFeatureNames().size()),
                    FlappyHidden, FlappyActions);
}

/// FLOPs of one DQN minibatch step: target and online forwards plus the
/// online backward (two forwards) over BatchSize rows.
inline double flappyTrainStepFlops(const au::nn::QConfig &Q) {
  return 4.0 * Q.BatchSize * flappyRowFlops();
}

/// The plain, un-autonomized game loop: \p Envs Flappy games stepped with
/// the scripted player, no primitives. Returns median ns per tick over
/// blocks of ticks run for about \p Seconds.
double plainFlappyTickNs(uint64_t Seed, int Envs, double Seconds);

} // namespace pb

#endif // PERFBENCH_FLAPPYCOMMON_H
