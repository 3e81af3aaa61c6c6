//===- tests/RlPipelineTest.cpp - Parallel actor pipeline tests ----------===//
//
// Covers the parallel-rollout machinery of DESIGN.md §8: the sharded replay
// ring, the K-actor training loop's bitwise determinism across thread
// counts, and the batched greedy evaluator's equivalence with the serial
// one. Each TEST runs as its own ctest process (gtest_discover_tests), so
// replacing the global thread pool inside a test is safe.
//
//===----------------------------------------------------------------------===//

#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "nn/ReplayBuffer.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace au;
using namespace au::apps;
using nn::ShardedReplay;
using nn::Transition;

//===----------------------------------------------------------------------===//
// Sharded replay ring
//===----------------------------------------------------------------------===//

namespace {
Transition makeT(float Tag) {
  return Transition{{Tag, Tag + 0.5f}, static_cast<int>(Tag), Tag * 10.0f,
                    {Tag + 1.0f, Tag + 1.5f}, false};
}
} // namespace

TEST(ReplayRing, SingleShardIsFifoWithWraparound) {
  ShardedReplay R;
  R.configure(/*NumShards=*/1, /*Capacity=*/4);
  for (int I = 0; I < 6; ++I)
    R.push(0, makeT(static_cast<float>(I)));
  // Pushes 0..5 into capacity 4: the two oldest are evicted.
  ASSERT_EQ(R.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_FLOAT_EQ(R.at(I).State[0], static_cast<float>(I + 2));
    EXPECT_EQ(R.at(I).Action, static_cast<int>(I + 2));
  }
}

TEST(ReplayRing, MergedViewIsShardMajorOldestFirst) {
  ShardedReplay R;
  R.configure(/*NumShards=*/3, /*Capacity=*/9); // 3 slots per shard.
  // Interleave insertions across shards; the merged view must depend only
  // on what landed in each shard, in age order, never on insertion
  // interleaving.
  R.push(2, makeT(20));
  R.push(0, makeT(0));
  R.push(1, makeT(10));
  R.push(0, makeT(1));
  R.push(2, makeT(21));
  ASSERT_EQ(R.size(), 5u);
  const float Expect[] = {0, 1, 10, 20, 21};
  for (size_t I = 0; I < 5; ++I)
    EXPECT_FLOAT_EQ(R.at(I).State[0], Expect[I]);
}

TEST(ReplayRing, PerShardCapacityEvictsOldest) {
  ShardedReplay R;
  R.configure(/*NumShards=*/2, /*Capacity=*/4); // 2 slots per shard.
  EXPECT_EQ(R.shardCapacity(), 2u);
  for (int I = 0; I < 3; ++I)
    R.push(0, makeT(static_cast<float>(I)));
  R.push(1, makeT(50));
  // Shard 0 overflowed: transition 0 evicted, 1 and 2 remain; shard 1
  // holds one.
  EXPECT_EQ(R.shardSize(0), 2u);
  EXPECT_EQ(R.shardSize(1), 1u);
  ASSERT_EQ(R.size(), 3u);
  EXPECT_FLOAT_EQ(R.at(0).State[0], 1.0f);
  EXPECT_FLOAT_EQ(R.at(1).State[0], 2.0f);
  EXPECT_FLOAT_EQ(R.at(2).State[0], 50.0f);
}

TEST(ReplayRing, EmplaceReusesSlotBuffersAfterWraparound) {
  ShardedReplay R;
  R.configure(/*NumShards=*/1, /*Capacity=*/2);
  const float S0[] = {1.0f, 2.0f}, S1[] = {3.0f, 4.0f};
  for (int Round = 0; Round < 3; ++Round)
    R.emplace(0, S0, 2, /*Action=*/Round, /*Reward=*/1.0f, S1, 2,
              /*Terminal=*/false);
  // After wraparound the slot's state vectors are reused in place — the
  // steady state allocates nothing.
  ASSERT_EQ(R.size(), 2u);
  const float *Before = R.at(1).State.data();
  R.emplace(0, S1, 2, /*Action=*/9, /*Reward=*/0.0f, S0, 2, true);
  // The new push overwrote the previously-oldest slot; the data pointer of
  // the slot it landed in must be one of the two already-allocated buffers.
  bool Reused = false;
  for (size_t I = 0; I < R.size(); ++I)
    if (R.at(I).Action == 9 &&
        (R.at(I).State.data() == Before || R.at(I).State.capacity() >= 2))
      Reused = true;
  EXPECT_TRUE(Reused);
  EXPECT_FLOAT_EQ(R.at(1).State[0], 3.0f);
  EXPECT_TRUE(R.at(1).Terminal);
}

TEST(ReplayRing, ReconfigureDropsContentsAndResplits) {
  ShardedReplay R;
  R.configure(1, 8);
  for (int I = 0; I < 5; ++I)
    R.push(0, makeT(static_cast<float>(I)));
  R.configure(4, 8);
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(R.numShards(), 4);
  EXPECT_EQ(R.shardCapacity(), 2u);
}

//===----------------------------------------------------------------------===//
// Parallel training determinism and eval equivalence
//===----------------------------------------------------------------------===//

namespace {

GameEnvFactory flappyFactory() {
  return [] { return std::make_unique<FlappyEnv>(); };
}

RlTrainOptions smallOptions() {
  RlTrainOptions Opt;
  Opt.FeatureNames = {"birdY", "birdV", "pipeDx", "gap1Y", "diffY"};
  Opt.TrainSteps = 600;
  Opt.MaxEpisodeSteps = 120;
  Opt.Seed = 33;
  Opt.QCfg.WarmupSteps = 100;
  Opt.QCfg.BatchSize = 8;
  Opt.QCfg.EpsilonDecaySteps = 400;
  return Opt;
}

struct ParallelRun {
  RlTrainResult Train;
  RlEvalResult Eval;
};

ParallelRun runParallel(int NumActors) {
  RlTrainOptions Opt = smallOptions();
  Opt.QCfg.TrainInterval = NumActors; // One minibatch per lockstep tick.
  Opt.EvalEvery = 300;
  Opt.EvalEpisodes = 3;
  Engine Eng;
  Session S(Eng, Mode::TR);
  ParallelRun R;
  R.Train = trainRlParallel(flappyFactory(), Eng, S, Opt, NumActors);
  R.Eval = evalRlBatched(flappyFactory(), Eng, S, Opt, /*Episodes=*/3);
  return R;
}

} // namespace

TEST(RlParallel, FourActorsBitwiseIdenticalAcrossThreadCounts) {
  // The §8 determinism contract: the entire training run — exploration,
  // replay contents, minibatch draws, learned weights — is a pure function
  // of (seed, actor count), never of AU_NN_THREADS. Greedy evaluation of
  // the trained model and every curve point must match bitwise.
  std::vector<ParallelRun> Runs;
  for (int Threads : {1, 4, 8}) {
    ThreadPool::setGlobalThreads(Threads);
    Runs.push_back(runParallel(/*NumActors=*/4));
  }
  ThreadPool::setGlobalThreads(1); // Back to the serial pool.
  const ParallelRun &Ref = Runs.front();
  EXPECT_GE(Ref.Train.StepsRun, 600);
  EXPECT_GT(Ref.Train.Episodes, 0);
  ASSERT_FALSE(Ref.Train.Curve.empty());
  for (size_t I = 1; I < Runs.size(); ++I) {
    const ParallelRun &R = Runs[I];
    EXPECT_EQ(R.Train.StepsRun, Ref.Train.StepsRun);
    EXPECT_EQ(R.Train.Episodes, Ref.Train.Episodes);
    EXPECT_EQ(R.Train.TraceBytes, Ref.Train.TraceBytes);
    ASSERT_EQ(R.Train.Curve.size(), Ref.Train.Curve.size());
    for (size_t P = 0; P < Ref.Train.Curve.size(); ++P) {
      EXPECT_EQ(R.Train.Curve[P].Steps, Ref.Train.Curve[P].Steps);
      EXPECT_EQ(R.Train.Curve[P].Progress, Ref.Train.Curve[P].Progress);
      EXPECT_EQ(R.Train.Curve[P].SuccessRate,
                Ref.Train.Curve[P].SuccessRate);
    }
    EXPECT_EQ(R.Eval.MeanProgress, Ref.Eval.MeanProgress);
    EXPECT_EQ(R.Eval.SuccessRate, Ref.Eval.SuccessRate);
  }
}

TEST(RlParallel, TrainRunsBudgetAndFillsReplay) {
  ThreadPool::setGlobalThreads(4);
  RlTrainOptions Opt = smallOptions();
  Opt.QCfg.TrainInterval = 2;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainResult Res = trainRlParallel(flappyFactory(), Eng, S, Opt,
                                      /*NumActors=*/2);
  EXPECT_GE(Res.StepsRun, Opt.TrainSteps);
  EXPECT_GT(Res.Episodes, 0);
  EXPECT_GT(Res.TraceBytes, 0u);
  EXPECT_GT(Res.ModelBytes, 0u);
  EXPECT_GT(Res.NumParams, 0u);
}

TEST(RlParallel, TrainFoldsLaneStatsIntoMainOnce) {
  // Every actor-tick is one au_NN per lane, preceded by one extract per
  // feature and one serialize; it then either steps (one write-back) or
  // closes an episode. The lanes' counters must land in Main exactly once
  // per run — a second run on the same Main folds only its own lanes.
  ThreadPool::setGlobalThreads(2);
  RlTrainOptions Opt = smallOptions();
  Opt.QCfg.TrainInterval = 3;
  const size_t NumFeatures = Opt.FeatureNames.size();
  Engine Eng;
  Session S(Eng, Mode::TR);
  for (int Run = 0; Run < 2; ++Run) {
    SessionStats Before = S.stats();
    RlTrainResult Res = trainRlParallel(flappyFactory(), Eng, S, Opt,
                                        /*NumActors=*/3);
    const SessionStats &After = S.stats();
    size_t Ticks = static_cast<size_t>(Res.StepsRun + Res.Episodes);
    EXPECT_GT(Res.Episodes, 0) << "run " << Run;
    EXPECT_EQ(After.NumNn - Before.NumNn, Ticks) << "run " << Run;
    EXPECT_EQ(After.NumSerialize - Before.NumSerialize, Ticks);
    EXPECT_EQ(After.NumExtract - Before.NumExtract, Ticks * NumFeatures);
    EXPECT_EQ(After.FloatsExtracted - Before.FloatsExtracted,
              Ticks * NumFeatures);
    EXPECT_EQ(After.NumWriteBack - Before.NumWriteBack,
              static_cast<size_t>(Res.StepsRun));
    EXPECT_EQ(Res.TraceBytes,
              (After.FloatsExtracted - Before.FloatsExtracted) *
                  sizeof(float));
  }
  ThreadPool::setGlobalThreads(1);
}

TEST(RlParallel, BatchedEvalSingleEpisodeMatchesSerialEval) {
  // With one lane the batched evaluator degenerates to the serial schedule
  // (a 1-row batch), and it seeds episodes identically — scores must match
  // exactly on the same trained model.
  FlappyEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt = smallOptions();
  trainRl(Env, S, Opt);
  RlEvalResult Serial = evalRl(Env, S, Opt, /*Episodes=*/1);
  RlEvalResult Batched = evalRlBatched(flappyFactory(), Eng, S, Opt,
                                       /*Episodes=*/1);
  EXPECT_EQ(Batched.MeanProgress, Serial.MeanProgress);
  EXPECT_EQ(Batched.SuccessRate, Serial.SuccessRate);
}

TEST(RlParallel, BatchedEvalMultiEpisodeMatchesSerialEval) {
  // Multi-lane: lanes retire at different ticks and the live set compacts,
  // but each lane still replays exactly the serial per-episode seed
  // schedule, so aggregate scores match the serial evaluator.
  FlappyEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt = smallOptions();
  trainRl(Env, S, Opt);
  RlEvalResult Serial = evalRl(Env, S, Opt, /*Episodes=*/5);
  RlEvalResult Batched = evalRlBatched(flappyFactory(), Eng, S, Opt,
                                       /*Episodes=*/5);
  EXPECT_EQ(Batched.MeanProgress, Serial.MeanProgress);
  EXPECT_EQ(Batched.SuccessRate, Serial.SuccessRate);
}

TEST(RlParallel, VectorEnvStreamsAreDecorrelatedAndStable) {
  VectorEnv VE(flappyFactory(), /*NumActors=*/3, /*Seed=*/7);
  ASSERT_EQ(VE.size(), 3);
  // Per-actor streams are derived counter-style from (seed, actor): the
  // same construction yields the same draws, and distinct actors draw
  // distinct sequences.
  VectorEnv VE2(flappyFactory(), 3, 7);
  EXPECT_EQ(VE.stream(0).next(), VE2.stream(0).next());
  EXPECT_NE(VE.stream(1).next(), VE.stream(2).next());
}
