//===- bench/selftest_coverage.cpp - Section 2 self-testing study --------===//
//
// The paper's "Autonomization for Software Self-Testing" experiment
// (Section 2): adding a +30 reward for new code coverage (Fig. 2 line 38)
// turns the Mario agent into a test generator. We compare branch coverage
// reached within the same interaction budget by
//   (a) the coverage-rewarded agent,
//   (b) the plain score-rewarded agent,
//   (c) random (monkey) testing,
//   (d) the scripted near-optimal player.
//
// Expected shape (paper): the coverage agent reaches high coverage quickly
// (~65% in 30s of play); the score agent and random play plateau lower.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/common/RlHarness.h"
#include "apps/mario/Mario.h"
#include "support/Table.h"

using namespace au;
using namespace au::apps;

namespace {
/// Plays random / heuristic actions and samples coverage over time.
std::vector<std::pair<long, double>> playScripted(MarioEnv &Env, bool Random,
                                                  long Budget,
                                                  long SampleEvery) {
  Env.resetCoverage();
  Rng R(91);
  std::vector<std::pair<long, double>> Curve;
  long Steps = 0;
  uint64_t Episode = 0;
  while (Steps < Budget) {
    Env.reset((0x7100ull << 8) | (Episode++ & 0xff));
    int EpSteps = 0;
    while (!Env.terminal() && EpSteps++ < 400 && Steps < Budget) {
      int A = Random ? static_cast<int>(R.uniformInt(5))
                     : Env.heuristicAction(R);
      Env.step(A);
      if (++Steps % SampleEvery == 0)
        Curve.emplace_back(Steps, Env.coverageFraction());
    }
  }
  return Curve;
}

/// Trains an agent (optionally coverage-rewarded) and samples coverage.
std::vector<std::pair<long, double>>
trainAgent(MarioEnv &Env, bool CoverageReward, long Budget,
           long SampleEvery) {
  Env.resetCoverage();
  Env.setCoverageReward(CoverageReward);
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.FeatureNames = selectRlFeatures(Env);
  Opt.TrainSteps = SampleEvery;
  Opt.MaxEpisodeSteps = 400;
  Opt.Seed = 0x7100;
  Opt.QCfg.EpsilonDecaySteps = static_cast<int>(Budget * 0.5);
  Opt.QCfg.LearningRateEnd = 1e-4;
  Opt.QCfg.TrainInterval = 2;

  std::vector<std::pair<long, double>> Curve;
  long Done = 0;
  while (Done < Budget) {
    trainRl({&Env}, S, Opt); // Continues the same model in the same session.
    Done += Opt.TrainSteps;
    Curve.emplace_back(Done, Env.coverageFraction());
  }
  Env.setCoverageReward(false);
  return Curve;
}
} // namespace

int main() {
  long Budget = bench::scaled(12000, 1200);
  long SampleEvery = Budget / 6;

  bench::banner("Section 2 self-testing: branch coverage vs interactions");
  std::printf("(%d instrumented branches in the Mario game logic; coverage\n"
              " is cumulative across episodes, like gcov)\n\n",
              MarioEnv::NumBranches);

  MarioEnv CovEnv, ScoreEnv, RandEnv, PlayEnv;
  auto CovCurve = trainAgent(CovEnv, /*CoverageReward=*/true, Budget,
                             SampleEvery);
  auto ScoreCurve = trainAgent(ScoreEnv, /*CoverageReward=*/false, Budget,
                               SampleEvery);
  auto RandCurve = playScripted(RandEnv, /*Random=*/true, Budget,
                                SampleEvery);
  auto PlayCurve = playScripted(PlayEnv, /*Random=*/false, Budget,
                                SampleEvery);

  Table Out({"Interactions", "Coverage agent", "Score agent", "Random",
             "Scripted player"});
  for (size_t I = 0; I != CovCurve.size(); ++I) {
    auto Cell = [&](const std::vector<std::pair<long, double>> &Curve) {
      return I < Curve.size() ? fmtPercent(Curve[I].second)
                              : fmtPercent(Curve.back().second);
    };
    Out.addRow({fmt(static_cast<long long>(CovCurve[I].first)),
                fmtPercent(CovCurve[I].second), Cell(ScoreCurve),
                Cell(RandCurve), Cell(PlayCurve)});
  }
  Out.print();

  std::printf("\nFinal coverage: coverage-rewarded %.0f%%, score-rewarded "
              "%.0f%%, random %.0f%%, scripted %.0f%%\n",
              CovCurve.back().second * 100, ScoreCurve.back().second * 100,
              RandCurve.back().second * 100, PlayCurve.back().second * 100);
  return 0;
}
