//===- nn/QLearner.cpp - Deep Q-learning ----------------------------------===//

#include "nn/QLearner.h"

#include "nn/Workspace.h"

#include <algorithm>
#include <cassert>

using namespace au;
using namespace au::nn;

QLearner::QLearner(std::function<Network()> MakeNet, int Actions,
                   QConfig Config, uint64_t BaseSeed)
    : Online(MakeNet()), Target(MakeNet()), Opt(Online, Config.LearningRate),
      NumActions(Actions), Cfg(Config), Rand(BaseSeed),
      Eps(Config.EpsilonStart) {
  assert(NumActions > 1 && "Q-learning needs at least two actions");
  Target.copyParamsFrom(Online);
  Replay.configure(1, Cfg.ReplayCapacity);
}

std::vector<float> QLearner::qValues(const std::vector<float> &State) {
  int D = static_cast<int>(State.size());
  if (ActStaging.size() != State.size())
    ActStaging = Tensor({1, D});
  std::copy(State.begin(), State.end(), ActStaging.data());
  Tensor Out = Online.forward(ActStaging);
  assert(Out.size() == static_cast<size_t>(NumActions) &&
         "network output arity does not match action count");
  std::vector<float> Q(Out.data(), Out.data() + Out.size());
  Workspace::release(Out);
  return Q;
}

void QLearner::configureActors(int NumActors) {
  assert(NumActors > 0 && "need at least one actor");
  if (NumActors != numActors())
    Replay.configure(NumActors, Cfg.ReplayCapacity);
}

void QLearner::selectActions(const float *States, int K, int D,
                             bool Learning, int *Actions) {
  assert(K > 0 && D > 0 && "empty action-selection batch");
  assert((!Learning || K <= numActors()) &&
         "learning batch larger than configured actor count");
  // Epsilon-greedy draws first, serially in actor order on the calling
  // thread: they come from one generator in a fixed order, so the chosen
  // actions are identical at any thread count.
  bool AnyGreedy = false;
  for (int A = 0; A < K; ++A) {
    Actions[A] = -1;
    if (Learning && Rand.chance(Eps))
      Actions[A] = static_cast<int>(Rand.uniformInt(NumActions));
    else
      AnyGreedy = true;
  }
  if (!AnyGreedy)
    return; // Every actor explores: no forward is read.
  // One fused inference for all K actors. Exploring rows are computed and
  // discarded, which keeps the batch shape fixed and each row a pure
  // function of the states — no data-dependent batching.
  if (ActStaging.size() != static_cast<size_t>(K) * D)
    ActStaging = Tensor({K, D});
  std::copy(States, States + static_cast<size_t>(K) * D, ActStaging.data());
  Tensor Out = Online.forward(ActStaging);
  for (int A = 0; A < K; ++A) {
    if (Actions[A] >= 0)
      continue;
    const float *Row = Out.sampleData(A);
    Actions[A] = static_cast<int>(
        std::max_element(Row, Row + NumActions) - Row);
  }
  Workspace::release(Out);
}

void QLearner::observeActor(int Actor, const float *State, size_t StateLen,
                            int Action, float Reward, const float *NextState,
                            size_t NextLen, bool Terminal) {
  assert(Action >= 0 && Action < NumActions && "action out of range");
  Replay.push(Actor, State, StateLen, Action, Reward, NextState, NextLen,
              Terminal);
}

void QLearner::finishTick(int Observed) {
  assert(Observed > 0 && "tick without observations");
  long Prev = Steps;
  Steps += Observed;
  decaySchedules();
  // Run every training step and target sync that came due while the tick's
  // transitions were recorded, in step order. At K = 1 that is one step
  // per tick. With TrainInterval == K (the vectorized-DQN
  // schedule) exactly one minibatch runs per K-actor tick.
  for (long S = Prev + 1; S <= Steps; ++S) {
    if (S >= Cfg.WarmupSteps && S % Cfg.TrainInterval == 0)
      trainStep();
    if (S % Cfg.TargetSyncInterval == 0)
      Target.copyParamsFrom(Online);
  }
}

void QLearner::decaySchedules() {
  // Linear epsilon decay over the configured horizon. Pure function of the
  // step count, so runs of any actor count agree at equal Steps.
  if (Eps > Cfg.EpsilonEnd) {
    double Frac = static_cast<double>(Steps) / Cfg.EpsilonDecaySteps;
    Eps = Cfg.EpsilonStart +
          (Cfg.EpsilonEnd - Cfg.EpsilonStart) * std::min(1.0, Frac);
  }

  // Optional learning-rate annealing over twice the epsilon horizon.
  if (Cfg.LearningRateEnd > 0.0) {
    double Frac = std::min(
        1.0, static_cast<double>(Steps) / (2.0 * Cfg.EpsilonDecaySteps));
    Opt.setLearningRate(Cfg.LearningRate +
                        (Cfg.LearningRateEnd - Cfg.LearningRate) * Frac);
  }
}

void QLearner::trainStep() {
  if (Replay.size() < static_cast<size_t>(Cfg.BatchSize))
    return;
  ++TrainSteps;
  // The gradients are zero here: Adam clears them after every update. One
  // forward over the target and online networks per minibatch, assembled
  // straight from the replay ring into reused batch tensors (no per-step
  // allocation); only the online pass keeps activations for backward.
  int Bn = Cfg.BatchSize;
  BatchPtrs.resize(static_cast<size_t>(Bn));
  for (int B = 0; B < Bn; ++B)
    BatchPtrs[static_cast<size_t>(B)] =
        &Replay.at(Rand.uniformInt(Replay.size()));
  int D = static_cast<int>(BatchPtrs[0]->State.size());
  if (BatchStates.size() != static_cast<size_t>(Bn) * D) {
    BatchStates = Tensor({Bn, D});
    BatchNext = Tensor({Bn, D});
    BatchGrad = Tensor({Bn, NumActions});
  }
  for (int B = 0; B < Bn; ++B) {
    const Transition &T = *BatchPtrs[static_cast<size_t>(B)];
    std::copy(T.State.begin(), T.State.end(), BatchStates.sampleData(B));
    if (T.NextState.size() == static_cast<size_t>(D))
      std::copy(T.NextState.begin(), T.NextState.end(),
                BatchNext.sampleData(B));
  }
  Tensor NextQ = Target.forward(BatchNext);
  Tensor Pred = Online.forward(BatchStates, &Ctx);
  BatchGrad.fill(0.0f);
  for (int B = 0; B < Bn; ++B) {
    const Transition &T = *BatchPtrs[static_cast<size_t>(B)];
    // Bootstrap target: r + gamma * max_a' Q_target(s', a') unless terminal.
    float Y = T.Reward;
    if (!T.Terminal) {
      const float *Row = NextQ.sampleData(B);
      Y += static_cast<float>(Cfg.Gamma) *
           *std::max_element(Row, Row + NumActions);
    }
    // Huber (delta = 1) derivative at the taken action; every other
    // action's gradient stays zero.
    float Diff = Pred.sampleData(B)[T.Action] - Y;
    BatchGrad.sampleData(B)[T.Action] = std::clamp(Diff, -1.0f, 1.0f);
  }
  Workspace::release(NextQ);
  Workspace::release(Pred);
  Online.backward(BatchGrad, Ctx);
  Opt.step(1.0 / Cfg.BatchSize);
}
