//===- bench/rl_throughput.cpp - Parallel rollout throughput -------------===//
//
// Measures the parallel actor pipeline of DESIGN.md §8 on Flappy (the All
// variant): environment steps per second and replay transitions trained per
// second, at 1/2/4/8 actors, against the serial trainRl loop.
//
// The serial baseline runs the paper's schedule (TrainInterval=1: one
// minibatch per environment step). Each parallel configuration runs the
// standard vectorized-DQN schedule (TrainInterval=K: one minibatch per
// K-actor tick), so both regimes perform one training update per schedule
// interval and the env-steps/sec ratio isolates what the pipeline buys:
// fused batched inference, per-actor replay shards, and cross-actor
// parallel stepping. An acting-only row (warmup beyond the budget, pure
// rollout + inference) isolates the inference fusion alone.
//
// Each configuration runs several times and reports the best run (min
// time), filtering scheduler noise. Prints one JSON line per row:
//
//   {"bench": "BM_RlTrain", "mode": "serial|parallel", "actors": K,
//    "threads": N, "cores": C, "env_steps_per_sec": ...,
//    "train_transitions_per_sec": ..., "speedup_vs_serial": ...}
//
// so BENCH_rl_throughput.json baselines can be diffed across PRs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace au;
using namespace au::apps;
using bench::machineFields;
using bench::scaled;

namespace {

RlTrainOptions baseOptions(long Steps) {
  RlTrainOptions Opt;
  // The same variable set Algorithm 2 selects for Flappy; hard-coded so the
  // bench measures the training loop, not feature selection.
  Opt.FeatureNames = {"birdY", "birdV", "pipeDx", "gap1Y", "diffY"};
  Opt.TrainSteps = Steps;
  Opt.MaxEpisodeSteps = 300;
  Opt.Seed = 21;
  return Opt;
}

struct Throughput {
  double EnvStepsPerSec = 0.0;
  double TrainedPerSec = 0.0;
};

/// Training updates the schedule performs over \p Steps env steps (the
/// schedule is deterministic: one update per TrainInterval once warm).
long expectedTrainSteps(long Steps, const nn::QConfig &Cfg) {
  long N = 0;
  for (long S = 1; S <= Steps; ++S)
    if (S >= Cfg.WarmupSteps && S % Cfg.TrainInterval == 0)
      ++N;
  return N;
}

/// Best-of-\p Reps throughput for one configuration. \p Actors == 0 selects
/// the serial trainRl loop.
Throughput measure(int Actors, long Steps, bool Learning, int Reps = 3) {
  Throughput Best;
  for (int R = 0; R < Reps; ++R) {
    RlTrainOptions Opt = baseOptions(Steps);
    if (!Learning) // Acting-only: warmup never ends, no minibatches run.
      Opt.QCfg.WarmupSteps = static_cast<int>(Steps) + 1;
    Engine Eng;
    Session S(Eng, Mode::TR);
    RlTrainResult Res;
    if (Actors == 0) {
      FlappyEnv Env;
      Res = trainRl(Env, S, Opt);
    } else {
      Opt.QCfg.TrainInterval = Actors;
      Res = trainRlParallel([] { return std::make_unique<FlappyEnv>(); },
                            Eng, S, Opt, Actors);
    }
    double Sec = Res.TrainSeconds;
    if (Sec <= 0)
      continue;
    long Trained =
        Learning ? expectedTrainSteps(Res.StepsRun, Opt.QCfg) *
                       Opt.QCfg.BatchSize
                 : 0;
    Best.EnvStepsPerSec =
        std::max(Best.EnvStepsPerSec, Res.StepsRun / Sec);
    Best.TrainedPerSec = std::max(Best.TrainedPerSec, Trained / Sec);
  }
  return Best;
}

void emit(const char *Mode, int Actors, const Throughput &T,
          double SerialSteps) {
  std::printf("{\"bench\": \"BM_RlTrain\", \"mode\": \"%s\", "
              "\"actors\": %d, %s, \"env_steps_per_sec\": %.0f, "
              "\"train_transitions_per_sec\": %.0f, "
              "\"speedup_vs_serial\": %.2f}\n",
              Mode, Actors, machineFields().c_str(), T.EnvStepsPerSec,
              T.TrainedPerSec,
              SerialSteps > 0 ? T.EnvStepsPerSec / SerialSteps : 0.0);
}

} // namespace

int main() {
  const long Steps = scaled(6000, 500);

  // Serial reference: the paper's loop, one minibatch per env step.
  Throughput Serial = measure(/*Actors=*/0, Steps, /*Learning=*/true);
  emit("serial", 1, Serial, Serial.EnvStepsPerSec);

  for (int Actors : {1, 2, 4, 8})
    emit("parallel", Actors,
         measure(Actors, Steps, /*Learning=*/true),
         Serial.EnvStepsPerSec);

  // Acting-only: rollout + fused inference, no training updates.
  Throughput SerialAct = measure(0, Steps, /*Learning=*/false);
  std::printf("{\"bench\": \"BM_RlActOnly\", \"mode\": \"serial\", "
              "\"actors\": 1, %s, \"env_steps_per_sec\": %.0f}\n",
              machineFields().c_str(), SerialAct.EnvStepsPerSec);
  for (int Actors : {2, 8}) {
    Throughput T = measure(Actors, Steps, /*Learning=*/false);
    std::printf("{\"bench\": \"BM_RlActOnly\", \"mode\": \"parallel\", "
                "\"actors\": %d, %s, \"env_steps_per_sec\": %.0f, "
                "\"speedup_vs_serial\": %.2f}\n",
                Actors, machineFields().c_str(), T.EnvStepsPerSec,
                SerialAct.EnvStepsPerSec > 0
                    ? T.EnvStepsPerSec / SerialAct.EnvStepsPerSec
                    : 0.0);
  }
  return 0;
}
