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
/// The runtime drives it through two calls per game-loop iteration:
/// selectAction(state) during au_NN, and observe(reward, terminal, nextState)
/// when the next au_NN arrives, matching the paper's "collect model
/// inputs/outputs for a window of time, then invoke the training method".
///
/// The multi-actor mode (DESIGN.md §8) generalizes this to K concurrent
/// rollouts: configureActors(K) shards the replay ring per actor and gives
/// each actor its own counter-based exploration stream, selectActionsBatch
/// fuses the K action selections into one forward, and
/// observeActor/finishTick split the per-transition recording (safe from
/// actor threads, disjoint shards) from the global training schedule (run
/// once per tick on the driving thread). All of it is deterministic at any
/// thread count.
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

  /// Epsilon-greedy action for \p State; decays epsilon when \p Learning.
  int selectAction(const std::vector<float> &State, bool Learning);

  /// Greedy action (no exploration, no learning side effects).
  int greedyAction(const std::vector<float> &State);

  /// Records a completed transition and runs a training step when due. The
  /// state vectors are taken by value and moved into the replay slot;
  /// callers that no longer need them should std::move.
  void observe(std::vector<float> State, int Action, float Reward,
               std::vector<float> NextState, bool Terminal);

  /// Q-values for \p State from the online network.
  std::vector<float> qValues(const std::vector<float> &State);

  //===--------------------------------------------------------------------===//
  // Multi-actor batched mode (DESIGN.md §8)
  //===--------------------------------------------------------------------===//

  /// Enters K-actor mode: the replay ring is resharded per actor (dropping
  /// any stored transitions) and each actor gets its own counter-based
  /// exploration stream. Grow-only; call before training begins.
  void configureActors(int NumActors);

  int numActors() const { return static_cast<int>(Streams.size()); }

  /// Epsilon-greedy actions for \p K states of \p D floats each, held back
  /// to back in \p States (K x D row-major), fused into one forward over
  /// the online network. Exploration draws come from the per-actor
  /// streams in actor order, so the result is independent of how the states
  /// were produced. Does not decay epsilon; finishTick does.
  void selectActionsBatch(const float *States, int K, int D, bool Learning,
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
  /// schedule the serial observe() follows, applied once per tick.
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
  Rng Rand;
  uint64_t Seed;
  ShardedReplay Replay;
  std::vector<Rng> Streams; ///< Per-actor exploration streams (K-actor mode).
  double Eps;
  long Steps = 0;
  long TrainSteps = 0;
  // Reusable staging for the batched paths: minibatch tensors are assembled
  // straight from the replay ring and action selection reuses one input
  // tensor, so the steady state allocates nothing per call.
  Tensor BatchStates, BatchNext, BatchGrad, ActStaging;
  std::vector<const Transition *> BatchPtrs;
  ForwardCtx Ctx; ///< Online-network activations of the current minibatch.
};

} // namespace nn
} // namespace au

#endif // AU_NN_QLEARNER_H
