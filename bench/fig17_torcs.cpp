//===- bench/fig17_torcs.cpp - Reproduces Fig. 17 -------------------------===//
//
// Fig. 17 of the paper: TORCS driving score as training progresses, for
// four settings — the scripted Players reference, Raw (screenshots through
// the CNN), All (Algorithm 2's twenty variables) and Manual (the
// hand-picked expert feature set).
//
// Expected shape: Manual learns a little faster than All (its features are
// hand-curated), both approach the Players line; Raw improves far slower
// at the same budget.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/common/RlHarness.h"
#include "apps/torcs/Torcs.h"
#include "support/Table.h"

using namespace au;
using namespace au::apps;

namespace {
RlTrainResult trainSetting(TorcsEnv &Env, RlVariant Variant,
                           std::vector<std::string> Features, long Steps,
                           long EvalEvery, uint64_t Seed) {
  RlTrainOptions Opt;
  Opt.Variant = Variant;
  Opt.FeatureNames = std::move(Features);
  Opt.FrameSide = 16;
  Opt.TrainSteps = Steps;
  Opt.MaxEpisodeSteps = 500;
  Opt.Seed = Seed;
  Opt.QCfg.EpsilonDecaySteps = static_cast<int>(Steps * 0.6);
  Opt.QCfg.LearningRateEnd = 1e-4;
  Opt.QCfg.TrainInterval = 2;
  Opt.EvalEvery = EvalEvery;
  Opt.EvalEpisodes = 6;
  Engine Eng;
  Session S(Eng, Mode::TR);
  return trainRl({&Env}, S, Opt);
}
} // namespace

int main() {
  long Steps = bench::scaled(12000, 1200);
  long RawSteps = bench::scaled(6000, 600);
  long EvalEvery = Steps / 6;
  long RawEvalEvery = RawSteps / 6;

  bench::banner("Fig. 17: TORCS driving score vs training progress");

  TorcsEnv Env;
  RlTrainOptions Ref;
  Ref.Seed = 55;
  Ref.MaxEpisodeSteps = 500;
  RlEvalResult Players = evalHeuristic(Env, Ref, 10);
  std::printf("Players reference: %.1f%% progress, %.0f%% finish rate\n\n",
              Players.MeanProgress * 100, Players.SuccessRate * 100);

  RlTrainResult All =
      trainSetting(Env, RlVariant::All, selectRlFeatures(Env), Steps,
                   EvalEvery, /*Seed=*/55);
  RlTrainResult Manual =
      trainSetting(Env, RlVariant::All, TorcsEnv::manualFeatureNames(),
                   Steps, EvalEvery, /*Seed=*/56);
  RlTrainResult Raw = trainSetting(Env, RlVariant::Raw, {}, RawSteps,
                                   RawEvalEvery, /*Seed=*/57);

  Table Out({"Train Frac", "Players", "All", "Manual", "Raw"});
  size_t Rows = All.Curve.size();
  for (size_t I = 0; I < Rows; ++I) {
    std::string RawCell =
        I < Raw.Curve.size() ? fmtPercent(Raw.Curve[I].Progress) : "-";
    Out.addRow({fmtPercent(static_cast<double>(I + 1) / Rows),
                fmtPercent(Players.MeanProgress),
                fmtPercent(All.Curve[I].Progress),
                fmtPercent(I < Manual.Curve.size()
                               ? Manual.Curve[I].Progress
                               : Manual.Curve.back().Progress),
                RawCell});
  }
  Out.print();

  std::printf("\nTraining time: All %.1fs (%zu features), Manual %.1fs "
              "(%zu features), Raw %.1fs (16x16 frames)\n",
              All.TrainSeconds, selectRlFeatures(Env).size(),
              Manual.TrainSeconds, TorcsEnv::manualFeatureNames().size(),
              Raw.TrainSeconds);
  std::printf("The x-axis is training iterations; in wall-clock terms Raw "
              "needs ~%.0fx\nlonger than All for the same iteration count "
              "(the paper's 40h-vs-20h gap).\n",
              Raw.TrainSeconds / std::max(0.01, All.TrainSeconds) *
                  (static_cast<double>(Steps) / RawSteps));
  return 0;
}
