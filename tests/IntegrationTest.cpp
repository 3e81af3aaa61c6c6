//===- tests/IntegrationTest.cpp - End-to-end autonomization tests -------===//
//
// Small but complete runs of the paper's pipeline: profile -> extract
// features -> annotate -> train through the primitives -> deploy. Budgets
// are kept tiny so the suite stays fast; the full-scale runs live in
// bench/.
//
//===----------------------------------------------------------------------===//

#include "apps/canny/Canny.h"
#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "apps/torcs/Torcs.h"
#include "TempPath.h"

#include <gtest/gtest.h>

using namespace au;
using au::test::TempPath;
using namespace au::apps;
using analysis::SlPick;

TEST(IntegrationSl, CannyMinVersionEndToEnd) {
  CannyExperiment Exp(/*NumTrain=*/24, /*NumTest=*/6, /*Seed=*/900);
  double Baseline = Exp.baselineScore();
  double TrainSecs = Exp.train(SlPick::Min, /*Epochs=*/40);
  EXPECT_GT(TrainSecs, 0.0);
  double Score = Exp.testScore(SlPick::Min);
  // The learned per-input parameters must not lose to one global default
  // (paper: +70% for Canny Min; we only require a clear non-regression
  // at this tiny training budget).
  EXPECT_GT(Score, Baseline - 0.02);
  EXPECT_GT(Exp.traceBytes(SlPick::Min), 0u);
  EXPECT_GT(Exp.modelBytes(SlPick::Min), 0u);
}

TEST(IntegrationSl, OracleBoundsLearnedVersions) {
  CannyExperiment Exp(/*NumTrain=*/12, /*NumTest=*/6, /*Seed=*/901);
  double Oracle = Exp.oracleScore();
  double Baseline = Exp.baselineScore();
  EXPECT_GT(Oracle, Baseline);
}

TEST(IntegrationRl, FlappyAllVariantTrainsAndImproves) {
  FlappyEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);

  // Feature extraction exactly as deployed: Algorithm 2 over a profile run.
  RlTrainOptions Opt;
  Opt.FeatureNames = selectRlFeatures(Env, 1e-6, 1e-4, 150);
  ASSERT_FALSE(Opt.FeatureNames.empty());
  Opt.TrainSteps = 4000;
  Opt.MaxEpisodeSteps = 300;
  Opt.Seed = 21;
  Opt.QCfg.EpsilonDecaySteps = 2500;

  RlEvalResult Before = evalRandom(Env, Opt, 10);
  RlTrainResult Train = trainRl({&Env}, S, Opt);
  EXPECT_EQ(Train.StepsRun, 4000);
  EXPECT_GT(Train.Episodes, 0);
  EXPECT_GT(Train.TraceBytes, 0u);
  RlEvalResult After = evalRl({&Env}, S, Opt, 10);
  // Learning must clearly beat random play even at this tiny budget.
  EXPECT_GT(After.MeanProgress, Before.MeanProgress);
}

TEST(IntegrationRl, EvalDoesNotPerturbTraining) {
  FlappyEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.FeatureNames = {"birdY", "birdV", "pipeDx", "gap1Y", "diffY"};
  Opt.TrainSteps = 600;
  Opt.EvalEvery = 200; // Interleaved evaluations.
  Opt.EvalEpisodes = 2;
  Opt.Seed = 22;
  RlTrainResult Res = trainRl({&Env}, S, Opt);
  EXPECT_EQ(Res.StepsRun, 600);
  EXPECT_EQ(Res.Curve.size(), 3u);
  EXPECT_EQ(S.mode(), Mode::TR) << "mode restored after evals";
}

TEST(IntegrationRl, CheckpointRestoreDrivesEpisodes) {
  MarioEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.FeatureNames = {"PX", "PY", "MnX", "OBJ", "objDx", "onGround"};
  Opt.TrainSteps = 1500;
  Opt.MaxEpisodeSteps = 120;
  Opt.Seed = 23;
  RlTrainResult Res = trainRl({&Env}, S, Opt);
  // Episode truncation at 120 steps guarantees several episodes, hence
  // several au_restore invocations.
  EXPECT_GT(Res.Episodes, 3);
  EXPECT_GT(S.stats().NumRestore, 0u);
  EXPECT_GT(S.stats().NumCheckpoint, 0u);
}

TEST(IntegrationRl, RawVariantRunsWithCnn) {
  FlappyEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.Variant = RlVariant::Raw;
  Opt.FrameSide = 16;
  Opt.TrainSteps = 250;
  Opt.Seed = 24;
  Opt.QCfg.WarmupSteps = 50;
  Opt.QCfg.BatchSize = 8;
  RlTrainResult Res = trainRl({&Env}, S, Opt);
  EXPECT_EQ(Res.StepsRun, 250);
  // The raw-pixel trace dwarfs the program-variable trace (Table 2).
  EXPECT_GT(Res.TraceBytes, 250u * 16 * 16 * sizeof(float) / 2);
  Model *M = S.getModel(rlModelName(Env, RlVariant::Raw));
  ASSERT_TRUE(M);
  EXPECT_EQ(M->config().Type, ModelType::CNN);
}

TEST(IntegrationRl, TrainedRlModelSurvivesSaveLoad) {
  FlappyEnv Env;
  TempPath Dir("models", /*MakeDir=*/true);
  RlTrainOptions Opt;
  Opt.FeatureNames = {"birdY", "birdV", "pipeDx", "gap1Y", "diffY"};
  Opt.TrainSteps = 800;
  Opt.Seed = 25;
  {
    Engine Eng(Dir.str());
    Session S(Eng, Mode::TR);
    trainRl({&Env}, S, Opt);
    ASSERT_TRUE(S.saveModel(rlModelName(Env, RlVariant::All)));
  }
  {
    Engine Eng(Dir.str());
    Session S(Eng, Mode::TS);
    ModelConfig C;
    C.Name = rlModelName(Env, RlVariant::All);
    C.Algo = Algorithm::QLearn;
    Model *M = S.config(C); // CONFIG-TEST loads from disk.
    ASSERT_TRUE(M->isBuilt());
    RlEvalResult R = evalRl({&Env}, S, Opt, 3);
    EXPECT_GE(R.MeanProgress, 0.0);
  }
}

TEST(IntegrationSelfTest, CoverageRewardFindsMoreBranches) {
  // The Section 2 self-testing experiment in miniature: an agent rewarded
  // for new coverage explores more branches than random play in the same
  // budget. (The full comparison lives in bench/selftest_coverage.)
  MarioEnv CovEnv;
  CovEnv.setCoverageReward(true);
  CovEnv.resetCoverage();
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt;
  Opt.FeatureNames = {"PX", "PY", "MnX", "OBJ", "objDx", "onGround"};
  Opt.TrainSteps = 2500;
  Opt.MaxEpisodeSteps = 150;
  Opt.Seed = 26;
  trainRl({&CovEnv}, S, Opt);
  int CovAgent = CovEnv.coverageCount();
  EXPECT_GT(CovAgent, MarioEnv::NumBranches / 3);
}
