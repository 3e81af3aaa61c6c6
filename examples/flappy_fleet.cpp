//===- examples/flappy_fleet.cpp - Parallel actor rollouts ---------------===//
//
// Trains the Flappy agent with a fleet of actors stepping in lockstep
// (DESIGN.md §8): per tick, K environments extract their feature variables
// into per-actor lane sessions, the K au_NN calls fuse into ONE batched
// model step, transitions land in per-actor replay shards, and one
// minibatch trains per tick (the vectorized-DQN schedule, TrainInterval =
// K). Each actor restores from its own checkpoint between episodes, as the
// serial loop does. The whole run is bitwise reproducible at any
// AU_NN_THREADS setting.
//
// Compares wall-clock and final greedy score against the serial loop (the
// same trainer over one env).
//
// Build & run:  ./build/examples/flappy_fleet [actors]
//
//===----------------------------------------------------------------------===//

#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace au;
using namespace au::apps;

int main(int argc, char **argv) {
  const int Actors = argc > 1 ? std::atoi(argv[1]) : 8;

  RlTrainOptions Opt;
  Opt.FeatureNames = {"birdY", "birdV", "pipeDx", "gap1Y", "diffY"};
  Opt.TrainSteps = 20000;
  Opt.MaxEpisodeSteps = 400;
  Opt.Seed = 21;
  Opt.QCfg.EpsilonDecaySteps = 4000;

  // Serial reference: the paper's loop, one minibatch per env step. Each
  // run gets its own Engine (model store θ) and Session (⟨σ, π⟩), the
  // native API of DESIGN.md §10, so the two trained models stay apart.
  std::printf("Serial training (%ld steps)...\n", Opt.TrainSteps);
  FlappyEnv Env;
  Engine SerialEng;
  Session SerialS(SerialEng, Mode::TR);
  RlTrainResult Serial = trainRl({&Env}, SerialS, Opt);
  RlEvalResult SerialScore = evalRl({&Env}, SerialS, Opt, 20);

  // Fleet: one minibatch per K-step tick, so spending the throughput win
  // on K-fold experience costs the same number of updates (and about the
  // same wall-clock) as the serial run. Epsilon decays per env step, so
  // its horizon scales too, keeping the explore/exploit profile aligned.
  Opt.TrainSteps *= Actors;
  Opt.QCfg.EpsilonDecaySteps *= Actors;
  Opt.QCfg.TrainInterval = Actors;
  std::printf("Fleet training (%d actors, %ld steps)...\n", Actors,
              Opt.TrainSteps);
  Engine FleetEng;
  Session FleetMain(FleetEng, Mode::TR);
  std::vector<FlappyEnv> Fleet(static_cast<size_t>(Actors));
  std::vector<GameEnv *> FleetEnvs;
  for (FlappyEnv &E : Fleet)
    FleetEnvs.push_back(&E);
  RlTrainResult FleetTrain = trainRl(FleetEnvs, FleetMain, Opt);
  RlEvalResult FleetScore = evalRl(FleetEnvs, FleetMain, Opt, 20);

  std::printf("\n%-22s %12s %12s\n", "", "serial", "fleet");
  std::printf("%-22s %12.2f %12.2f\n", "train seconds",
              Serial.TrainSeconds, FleetTrain.TrainSeconds);
  std::printf("%-22s %12.0f %12.0f\n", "env steps/sec",
              Serial.StepsRun / Serial.TrainSeconds,
              FleetTrain.StepsRun / FleetTrain.TrainSeconds);
  std::printf("%-22s %12ld %12ld\n", "episodes", Serial.Episodes,
              FleetTrain.Episodes);
  std::printf("%-22s %12.1f %12.1f\n", "eval mean progress",
              SerialScore.MeanProgress, FleetScore.MeanProgress);
  std::printf("%-22s %11.0f%% %11.0f%%\n", "eval success",
              100.0 * SerialScore.SuccessRate,
              100.0 * FleetScore.SuccessRate);
  std::printf("\nspeedup: %.2fx env steps/sec with %d actors\n",
              (FleetTrain.StepsRun / FleetTrain.TrainSeconds) /
                  (Serial.StepsRun / Serial.TrainSeconds),
              Actors);
  return 0;
}
