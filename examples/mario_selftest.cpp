//===- examples/mario_selftest.cpp - Self-testing via coverage reward ----===//
//
// The paper's Section 2 twist: "All we need to do is to update the reward
// so that it reflects the code coverage improvement" (Fig. 2 line 38).
// With the +30 new-coverage bonus enabled, the same autonomized Mario
// becomes a test generator that hunts rare branches instead of (only)
// clearing the stage. The example prints the coverage each agent reaches
// in the same interaction budget.
//
// Build & run:  ./build/examples/mario_selftest [train-steps]
//
//===----------------------------------------------------------------------===//

#include "apps/common/RlHarness.h"
#include "apps/mario/Mario.h"

#include <cstdio>
#include <cstdlib>

using namespace au;
using namespace au::apps;

/// Trains one agent and reports the cumulative branch coverage reached.
static double trainAndMeasure(bool CoverageReward, long Steps) {
  MarioEnv Game;
  Game.resetCoverage();
  Game.setCoverageReward(CoverageReward); // Fig. 2 line 38 on/off.
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.FeatureNames = selectRlFeatures(Game);
  Opt.TrainSteps = Steps;
  Opt.MaxEpisodeSteps = 400;
  Opt.Seed = 0x7100;
  Opt.QCfg.EpsilonDecaySteps = static_cast<int>(Steps * 0.5);
  Opt.QCfg.LearningRateEnd = 1e-4;
  Opt.QCfg.TrainInterval = 2;
  trainRl({&Game}, S, Opt);
  return Game.coverageFraction();
}

int main(int Argc, char **Argv) {
  long Steps = Argc > 1 ? std::atol(Argv[1]) : 10000;

  std::printf("Mario self-testing (%d instrumented branches, %ld "
              "interactions per agent)\n\n",
              MarioEnv::NumBranches, Steps);

  // The interesting comparison is how FAST coverage is reached; report an
  // early checkpoint too (the full curves live in bench/selftest_coverage).
  double CovEarly = trainAndMeasure(/*CoverageReward=*/true, Steps / 2);
  double ScoreEarly = trainAndMeasure(/*CoverageReward=*/false, Steps / 2);
  std::printf("after %ld interactions:  coverage-rewarded %.0f%%  "
              "score-rewarded %.0f%%\n\n",
              Steps / 2, CovEarly * 100, ScoreEarly * 100);

  double CovAgent = trainAndMeasure(/*CoverageReward=*/true, Steps);
  double ScoreAgent = trainAndMeasure(/*CoverageReward=*/false, Steps);

  // Random (monkey) testing reference.
  MarioEnv Game;
  Game.resetCoverage();
  Rng R(3);
  long Done = 0;
  uint64_t Ep = 0;
  while (Done < Steps) {
    Game.reset((0x7100ull << 8) | (Ep++ & 0xff));
    int EpSteps = 0;
    while (!Game.terminal() && EpSteps++ < 400 && Done++ < Steps)
      Game.step(static_cast<int>(R.uniformInt(5)));
  }

  std::printf("coverage-rewarded agent : %.0f%%\n", CovAgent * 100);
  std::printf("score-rewarded agent    : %.0f%%\n", ScoreAgent * 100);
  std::printf("random (monkey) testing : %.0f%%\n",
              Game.coverageFraction() * 100);
  std::printf("\nBoth trained agents dominate random testing; the coverage "
              "reward's edge is\nreaching rare branches earlier (see "
              "bench/selftest_coverage for curves —\nthe paper reports ~65%% "
              "coverage in 30s of play for its coverage agent).\n");
  return 0;
}
