//===- nn/QLearner.h - Deep Q-learning --------------------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep Q-learning (Watkins' Q algorithm with a neural function approximator,
/// experience replay and a target network — the setup of Mnih et al. that the
/// paper's RL mode instantiates for `au_config(..., QLearn, ...)`).
///
/// The runtime drives it once per au_NN tick of K actors (K = 1 is the
/// paper's serial game loop; DESIGN.md §8): observeActor records each
/// actor's completed transition into its own replay shard, finishTick runs
/// the training schedule once for the tick, and selectActions picks the K
/// next actions with one fused forward. This matches the paper's "collect
/// model inputs/outputs for a window of time, then invoke the training
/// method". Exploration and minibatch draws all come from the learner's one
/// generator, taken on the driving thread in actor order, so everything is
/// deterministic at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_QLEARNER_H
#define AU_NN_QLEARNER_H

#include "nn/Network.h"
#include "nn/Optimizer.h"
#include "nn/ReplayBuffer.h"
#include "support/Rng.h"

#include <functional>
#include <vector>

namespace au {
namespace nn {

/// Hyperparameters for the DQN agent.
struct QConfig {
  double Gamma = 0.97;          ///< Discount factor.
  double LearningRate = 5e-4;   ///< Adam step size.
  /// Final step size; when > 0 the rate anneals linearly to this value
  /// over 2x the epsilon horizon, which damps late-training policy
  /// collapse (DQN's classic instability).
  double LearningRateEnd = 0.0;
  double EpsilonStart = 1.0;    ///< Initial exploration rate.
  double EpsilonEnd = 0.05;     ///< Final exploration rate.
  int EpsilonDecaySteps = 4000; ///< Linear decay horizon in steps.
  int ReplayCapacity = 20000;   ///< Max transitions kept.
  int BatchSize = 32;           ///< Minibatch size per training step.
  int WarmupSteps = 200;        ///< Steps before training starts.
  int TargetSyncInterval = 250; ///< Steps between target-net syncs.
  int TrainInterval = 1;        ///< Train every N observed steps.
};

/// A DQN agent over discrete actions. Owns an online and a target network of
/// identical architecture (built via the factory passed to the constructor).
class QLearner {
public:
  /// \p MakeNet builds a fresh network (called twice: online + target).
  QLearner(std::function<Network()> MakeNet, int NumActions, QConfig Config,
           uint64_t Seed);

  /// Q-values for \p State from the online network.
  std::vector<float> qValues(const std::vector<float> &State);

  /// Shards the replay ring per actor (dropping any stored transitions)
  /// for K concurrent actors. A new learner has one actor; a call with the
  /// current count does nothing. Call before training begins.
  void configureActors(int NumActors);

  int numActors() const { return Replay.numShards(); }

  /// Epsilon-greedy actions for \p K states of \p D floats each, held back
  /// to back in \p States (K x D row-major), fused into one forward over
  /// the online network (skipped when every actor explores). When
  /// \p Learning, the exploration draws come from the learner's generator
  /// in actor order; at K = 1 that is the serial loop's draw sequence. Does
  /// not decay epsilon; finishTick does.
  void selectActions(const float *States, int K, int D, bool Learning,
                     int *Actions);

  /// Records one completed transition into \p Actor's replay shard.
  /// Distinct actors may call concurrently; the global step count does not
  /// advance until finishTick.
  void observeActor(int Actor, const float *State, size_t StateLen,
                    int Action, float Reward, const float *NextState,
                    size_t NextLen, bool Terminal);

  /// Completes one tick in which \p Observed transitions were recorded:
  /// advances the step count, decays epsilon / anneals the learning rate,
  /// and runs every training step and target sync that came due — the same
  /// schedule one observed step at a time would follow, applied once per
  /// tick.
  void finishTick(int Observed);

  double epsilon() const { return Eps; }
  long stepsObserved() const { return Steps; }
  /// Minibatch training steps run so far (throughput accounting).
  long trainStepsRun() const { return TrainSteps; }
  size_t replaySize() const { return Replay.size(); }
  const ShardedReplay &replay() const { return Replay; }
  Network &onlineNetwork() { return Online; }
  const QConfig &config() const { return Cfg; }

  /// Serialized online-model size in bytes (Table 2 "Model Size").
  size_t modelSizeBytes() { return Online.sizeInBytes(); }

private:
  void trainStep();
  void decaySchedules();

  Network Online;
  Network Target;
  Adam Opt;
  int NumActions;
  QConfig Cfg;
  Rng Rand; ///< Exploration and minibatch draws, driving thread only.
  ShardedReplay Replay;
  double Eps;
  long Steps = 0;
  long TrainSteps = 0;
  // Reusable staging: minibatch tensors are assembled straight from the
  // replay ring, and action selection and qValues reuse one input tensor,
  // so the steady state allocates nothing per call.
  Tensor BatchStates, BatchNext, BatchGrad, ActStaging;
  std::vector<const Transition *> BatchPtrs;
  ForwardCtx Ctx; ///< Online-network activations of the current minibatch.
};

} // namespace nn
} // namespace au

#endif // AU_NN_QLEARNER_H
