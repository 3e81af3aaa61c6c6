//===- examples/torcs_drive.cpp - Autonomized driving (Section 6.3) ------===//
//
// The paper's TORCS case study: annotate `steer` as the target variable,
// let Algorithm 2 mine the sensor variables (watching it prune the `roll`
// alias and the near-constant `accX`, Figs. 15/16), then train the
// steering policy and drive the course.
//
// Build & run:  ./build/examples/torcs_drive [train-steps]
//
//===----------------------------------------------------------------------===//

#include "apps/common/RlHarness.h"
#include "apps/torcs/Torcs.h"
#include "support/Statistics.h"

#include <cstdio>
#include <cstdlib>

using namespace au;
using namespace au::apps;

int main(int Argc, char **Argv) {
  long Steps = Argc > 1 ? std::atol(Argv[1]) : 12000;

  TorcsEnv Car;

  // --- Feature mining with the paper's thresholds. ---
  analysis::RlExtractionStats Stats;
  std::vector<std::string> Features =
      selectRlFeatures(Car, /*Epsilon1=*/0.05, /*Epsilon2=*/0.01, 300,
                       &Stats);
  std::printf("Algorithm 2: %d candidates -> %zu features (pruned %d "
              "redundant, %d unchanging)\n",
              Stats.NumCandidates, Features.size(), Stats.PrunedRedundant,
              Stats.PrunedUnchanging);
  for (const auto &[Kept, Pruned] : Stats.RedundantPairs)
    std::printf("  pruned '%s' (duplicates '%s')\n", Pruned.c_str(),
                Kept.c_str());
  std::printf("\n");

  // --- Train the steering policy. ---
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.FeatureNames = Features;
  Opt.TrainSteps = Steps;
  Opt.MaxEpisodeSteps = 500;
  Opt.Seed = 0x70c5;
  Opt.QCfg.EpsilonDecaySteps = static_cast<int>(Steps * 0.6);
  Opt.QCfg.LearningRateEnd = 1e-4;
  Opt.QCfg.TrainInterval = 2;
  std::printf("Training for %ld control iterations...\n", Steps);
  RlTrainResult Train = trainRl({&Car}, S, Opt);

  // --- Drive. ---
  RlEvalResult Drive = evalRl({&Car}, S, Opt, 10);
  RlEvalResult Players = evalHeuristic(Car, Opt, 10);
  std::printf("\nTrained in %.1fs over %ld episodes.\n", Train.TrainSeconds,
              Train.Episodes);
  std::printf("Driving score (distance before bumping, 10 runs): %.0f%% "
              "(finish rate %.0f%%)\n",
              Drive.MeanProgress * 100, Drive.SuccessRate * 100);
  std::printf("Players reference:                                %.0f%% "
              "(finish rate %.0f%%)\n",
              Players.MeanProgress * 100, Players.SuccessRate * 100);
  return 0;
}
