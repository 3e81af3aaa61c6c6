//===- tests/RlPipelineTest.cpp - Parallel actor pipeline tests ----------===//
//
// Covers the RL pipeline of DESIGN.md §8: the sharded replay ring, the one
// trainer (its one-lane run against the paper's loop written out, and its
// K-lane runs' bitwise determinism across thread counts), the one
// evaluator's independence of its lane count, and the zero-allocation steady
// state of the one RL step. Each TEST runs as its own ctest process
// (gtest_discover_tests), so replacing the global thread pool inside a test
// is safe.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "nn/ReplayBuffer.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace au;
using namespace au::apps;
using nn::ShardedReplay;

//===----------------------------------------------------------------------===//
// Sharded replay ring
//===----------------------------------------------------------------------===//

namespace {
/// Pushes a transition tagged \p Tag (state {Tag, Tag + 0.5}, action Tag)
/// into \p Shard.
void pushT(ShardedReplay &R, int Shard, float Tag) {
  const float State[] = {Tag, Tag + 0.5f}, Next[] = {Tag + 1.0f, Tag + 1.5f};
  R.push(Shard, State, 2, static_cast<int>(Tag), Tag * 10.0f, Next, 2,
         /*Terminal=*/false);
}
} // namespace

TEST(ReplayRing, SingleShardIsFifoWithWraparound) {
  ShardedReplay R;
  R.configure(/*NumShards=*/1, /*Capacity=*/4);
  for (int I = 0; I < 6; ++I)
    pushT(R, 0, static_cast<float>(I));
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
  pushT(R, 2, 20);
  pushT(R, 0, 0);
  pushT(R, 1, 10);
  pushT(R, 0, 1);
  pushT(R, 2, 21);
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
    pushT(R, 0, static_cast<float>(I));
  pushT(R, 1, 50);
  // Shard 0 overflowed: transition 0 evicted, 1 and 2 remain; shard 1
  // holds one.
  EXPECT_EQ(R.shardSize(0), 2u);
  EXPECT_EQ(R.shardSize(1), 1u);
  ASSERT_EQ(R.size(), 3u);
  EXPECT_FLOAT_EQ(R.at(0).State[0], 1.0f);
  EXPECT_FLOAT_EQ(R.at(1).State[0], 2.0f);
  EXPECT_FLOAT_EQ(R.at(2).State[0], 50.0f);
}

TEST(ReplayRing, PushReusesSlotBuffersAfterWraparound) {
  ShardedReplay R;
  R.configure(/*NumShards=*/1, /*Capacity=*/2);
  const float S0[] = {1.0f, 2.0f}, S1[] = {3.0f, 4.0f};
  for (int Round = 0; Round < 3; ++Round)
    R.push(0, S0, 2, /*Action=*/Round, /*Reward=*/1.0f, S1, 2,
              /*Terminal=*/false);
  // After wraparound the slot's state vectors are reused in place — the
  // steady state allocates nothing.
  ASSERT_EQ(R.size(), 2u);
  const float *Before = R.at(1).State.data();
  R.push(0, S1, 2, /*Action=*/9, /*Reward=*/0.0f, S0, 2, true);
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
    pushT(R, 0, static_cast<float>(I));
  R.configure(4, 8);
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(R.numShards(), 4);
  EXPECT_EQ(R.shardCapacity(), 2u);
}

//===----------------------------------------------------------------------===//
// The trainer and the evaluator
//===----------------------------------------------------------------------===//

namespace {

/// K caller-owned Flappy envs and the pointer list the harness takes.
struct Fleet {
  std::vector<FlappyEnv> Envs;
  std::vector<GameEnv *> Ptrs;

  explicit Fleet(int K) : Envs(static_cast<size_t>(K)) {
    for (FlappyEnv &E : Envs)
      Ptrs.push_back(&E);
  }
};

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
  Fleet F(NumActors);
  ParallelRun R;
  R.Train = trainRl(F.Ptrs, S, Opt);
  R.Eval = evalRl(F.Ptrs, S, Opt, /*Episodes=*/3);
  return R;
}

/// The online network's parameters of the RL model \p Name in \p S.
std::vector<float> onlineParams(Session &S, const std::string &Name) {
  auto *M = static_cast<RlModel *>(S.getModel(Name));
  std::vector<float> Flat;
  for (const nn::ParamView &P : M->learner()->onlineNetwork().params())
    Flat.insert(Flat.end(), P.Values, P.Values + P.Count);
  return Flat;
}

} // namespace

TEST(RlParallel, OneLaneTrainerIsThePaperLoop) {
  // The Fig. 2 loop written out against one TR Session: extract, serialize,
  // au_NN, write back, act; on a terminal step au_restore, or every eighth
  // episode a fresh jittered episode and a new au_checkpoint. trainRl over
  // one env must be that loop, bitwise.
  RlTrainOptions Opt = smallOptions();
  FlappyEnv RefEnv;
  Engine RefEng;
  Session S(RefEng, Mode::TR);
  const std::string Name = rlModelName(RefEnv, RlVariant::All);
  ModelConfig C;
  C.Name = Name;
  C.Type = ModelType::DNN;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = Opt.Hidden;
  C.FrameSide = Opt.FrameSide;
  C.FrameChannels = 1;
  C.Seed = Opt.Seed;
  static_cast<RlModel *>(S.config(C))->setQConfig(Opt.QCfg);
  auto LevelSeed = [&](long Episode) {
    return (Opt.Seed << 8) | (static_cast<uint64_t>(Episode) & 0xff);
  };
  RefEnv.reset(LevelSeed(0));
  NameId ModelId = S.intern(Name);
  WriteBackHandle Out{S.intern("output"), RefEnv.numActions()};
  std::vector<NameId> Feats;
  for (const std::string &F : Opt.FeatureNames)
    Feats.push_back(S.intern(F));
  S.checkpoints().registerObject(&RefEnv);
  S.checkpoint();

  size_t TraceStart = S.stats().traceBytes();
  long Steps = 0, Episodes = 0;
  int EpSteps = 0;
  float Reward = 0.0f;
  bool Term = false;
  while (Steps < Opt.TrainSteps) {
    std::vector<Feature> Fs = RefEnv.features();
    for (size_t I = 0; I != Feats.size(); ++I)
      S.extract(Feats[I], featureValue(Fs, Opt.FeatureNames[I]));
    NameId Ext = S.serialize(Feats);
    S.nn(ModelId, Ext, Reward, Term, Out);
    int Action = 0;
    S.writeBack(Out.Name, RefEnv.numActions(), &Action);
    if (Term) {
      ++Episodes;
      EpSteps = 0;
      Reward = 0.0f;
      Term = false;
      if (Episodes % 8 == 0) {
        RefEnv.reset(LevelSeed(Episodes));
        S.checkpoint();
      } else {
        S.restore();
      }
      continue;
    }
    Reward = RefEnv.step(Action);
    Term = RefEnv.terminal();
    ++Steps;
    if (++EpSteps >= Opt.MaxEpisodeSteps)
      Term = true;
  }
  size_t RefTrace = S.stats().traceBytes() - TraceStart;
  std::vector<float> RefParams = onlineParams(S, Name);
  ASSERT_GE(Episodes, 8) << "the run must reach a fresh-episode re-arm";

  for (long EvalEvery : {0L, 200L}) {
    SCOPED_TRACE(::testing::Message() << "EvalEvery " << EvalEvery);
    RlTrainOptions O = Opt;
    O.EvalEvery = EvalEvery;
    O.EvalEpisodes = 2;
    FlappyEnv Env;
    Engine Eng;
    Session Main(Eng, Mode::TR);
    RlTrainResult Res = trainRl({&Env}, Main, O);
    EXPECT_EQ(Res.StepsRun, Steps);
    EXPECT_EQ(Res.Episodes, Episodes);
    if (EvalEvery == 0)
      EXPECT_EQ(Res.TraceBytes, RefTrace);
    else
      EXPECT_EQ(Res.Curve.size(), 3u);
    // Evaluation must not disturb training.
    std::vector<float> Params = onlineParams(Main, Name);
    ASSERT_EQ(Params.size(), RefParams.size());
    for (size_t I = 0; I != Params.size(); ++I)
      ASSERT_EQ(Params[I], RefParams[I]) << "parameter " << I;
  }
}

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
  Fleet F(2);
  RlTrainResult Res = trainRl(F.Ptrs, S, Opt);
  EXPECT_GE(Res.StepsRun, Opt.TrainSteps);
  EXPECT_GT(Res.Episodes, 0);
  EXPECT_GT(Res.TraceBytes, 0u);
  EXPECT_GT(Res.ModelBytes, 0u);
  EXPECT_GT(Res.NumParams, 0u);
}

TEST(RlParallel, TrainFoldsLaneStatsIntoMainOnce) {
  // Every lane-tick is one au_NN and one write-back, preceded by one
  // extract per feature and one serialize; it then either steps or closes
  // an episode. Each lane checkpoints once at the start and, per closed
  // episode, either restores or re-arms its checkpoint. The lanes' counters
  // must land in Main exactly once per run — a second run on the same Main
  // folds only its own lanes.
  ThreadPool::setGlobalThreads(2);
  RlTrainOptions Opt = smallOptions();
  Opt.QCfg.TrainInterval = 3;
  const size_t K = 3;
  const size_t NumFeatures = Opt.FeatureNames.size();
  Engine Eng;
  Session S(Eng, Mode::TR);
  Fleet F(static_cast<int>(K));
  for (int Run = 0; Run < 2; ++Run) {
    SessionStats Before = S.stats();
    RlTrainResult Res = trainRl(F.Ptrs, S, Opt);
    const SessionStats &After = S.stats();
    size_t Ticks = static_cast<size_t>(Res.StepsRun + Res.Episodes);
    EXPECT_GT(Res.Episodes, 0) << "run " << Run;
    EXPECT_EQ(After.NumNn - Before.NumNn, Ticks) << "run " << Run;
    EXPECT_EQ(After.NumSerialize - Before.NumSerialize, Ticks);
    EXPECT_EQ(After.NumExtract - Before.NumExtract, Ticks * NumFeatures);
    EXPECT_EQ(After.FloatsExtracted - Before.FloatsExtracted,
              Ticks * NumFeatures);
    EXPECT_EQ(After.NumWriteBack - Before.NumWriteBack, Ticks);
    EXPECT_EQ(Res.TraceBytes,
              (After.FloatsExtracted - Before.FloatsExtracted) *
                  sizeof(float));
    size_t Checkpoints = After.NumCheckpoint - Before.NumCheckpoint;
    size_t Restores = After.NumRestore - Before.NumRestore;
    EXPECT_GT(Checkpoints, 0u) << "run " << Run;
    EXPECT_GT(Restores, 0u) << "run " << Run;
    EXPECT_EQ(Checkpoints + Restores,
              K + static_cast<size_t>(Res.Episodes));
  }
  ThreadPool::setGlobalThreads(1);
}

TEST(RlParallel, EachTrainCallStartsWithEmptyChains) {
  // A training run's first tick has no previous step to complete, so it
  // observes nothing, whether or not an earlier run trained the same model:
  // the last step of that run must not be linked to this run's first state.
  for (int K : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "K = " << K);
    RlTrainOptions Opt = smallOptions();
    Opt.TrainSteps = 40;
    Engine Eng;
    Session S(Eng, Mode::TR);
    Fleet F(K);
    RlTrainResult First = trainRl(F.Ptrs, S, Opt);
    nn::QLearner *L =
        static_cast<RlModel *>(S.getModel(First.ModelName))->learner();
    long Observed = L->stepsObserved();
    EXPECT_GT(Observed, 0);
    Opt.TrainSteps = 1; // One tick.
    trainRl(F.Ptrs, S, Opt);
    EXPECT_EQ(L->stepsObserved(), Observed);
  }
}

TEST(RlParallel, BatchedEvalSingleEpisodeMatchesSerialEval) {
  // One lane on the env training left mid-episode, against one lane on a
  // fresh env: each episode is reset to its own seed, so the scores match
  // exactly on the same trained model.
  FlappyEnv Env, Fresh;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt = smallOptions();
  trainRl({&Env}, S, Opt);
  RlEvalResult Serial = evalRl({&Env}, S, Opt, /*Episodes=*/1);
  RlEvalResult Batched = evalRl({&Fresh}, S, Opt, /*Episodes=*/1);
  EXPECT_EQ(Batched.MeanProgress, Serial.MeanProgress);
  EXPECT_EQ(Batched.SuccessRate, Serial.SuccessRate);
}

TEST(RlParallel, BatchedEvalMultiEpisodeMatchesSerialEval) {
  // Five lanes against one: lanes retire at different ticks and the live
  // set compacts, but each episode keeps its own seed and the scores are
  // summed in episode order, so the two evaluations match exactly.
  FlappyEnv Env;
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlTrainOptions Opt = smallOptions();
  trainRl({&Env}, S, Opt);
  Fleet F(5);
  RlEvalResult Serial = evalRl({&Env}, S, Opt, /*Episodes=*/5);
  RlEvalResult Batched = evalRl(F.Ptrs, S, Opt, /*Episodes=*/5);
  EXPECT_EQ(Batched.MeanProgress, Serial.MeanProgress);
  EXPECT_EQ(Batched.SuccessRate, Serial.SuccessRate);
}

TEST(RlParallel, RngStreamsAreDecorrelatedAndStable) {
  // Streams are derived counter-style from (seed, stream id): the same
  // construction yields the same draws, and distinct ids draw distinct
  // sequences.
  EXPECT_EQ(Rng::stream(7, 0).next(), Rng::stream(7, 0).next());
  EXPECT_NE(Rng::stream(7, 1).next(), Rng::stream(7, 2).next());
}

//===----------------------------------------------------------------------===//
// The one RL step allocates nothing in its steady state
//===----------------------------------------------------------------------===//

namespace {

/// Learning RlModel::stepActors calls for K actors with a minibatch due on
/// every call (TrainInterval = 1, and no call observes nothing), a target
/// sync every few calls, an actor ending its episode now and then, and
/// half of the actions explored (so some calls skip the action forward and
/// some run it). The replay ring is small and has wrapped before the first
/// measured pass.
template <int K> struct RlStepWork {
  static constexpr int D = 5;
  RlModel M{config()};
  WriteBackSpec Out{"output", 2};
  std::vector<float> States = std::vector<float>(K * D);
  std::vector<float> Rewards = std::vector<float>(K, 0.5f);
  std::vector<uint8_t> Terms = std::vector<uint8_t>(K, 0);
  std::vector<int> Actions = std::vector<int>(K, 0);
  long Tick = 0;

  static ModelConfig config() {
    ModelConfig C;
    C.Name = "q";
    C.Algo = Algorithm::QLearn;
    C.HiddenLayers = {32, 32};
    C.Seed = 5;
    return C;
  }

  RlStepWork() {
    nn::QConfig Q;
    Q.ReplayCapacity = 8 * K;
    Q.BatchSize = 8;
    Q.WarmupSteps = 8;
    Q.TargetSyncInterval = 5;
    Q.TrainInterval = 1;
    Q.EpsilonStart = Q.EpsilonEnd = 0.5;
    M.setQConfig(Q);
    M.configureActors(K);
    for (int I = 0; I < 40; ++I)
      pass();
  }

  void pass() {
    ++Tick;
    for (int A = 0; A < K; ++A) {
      for (int J = 0; J < D; ++J)
        States[static_cast<size_t>(A * D + J)] =
            static_cast<float>((Tick * 7 + A * 3 + J) % 11) * 0.1f;
      // With K > 1 one actor at a time ends its episode; the others
      // still observe, so a minibatch stays due.
      Terms[static_cast<size_t>(A)] = K > 1 && Tick % 5 == A ? 1 : 0;
    }
    M.stepActors(States.data(), K, D, Rewards.data(), Terms.data(), Out,
                 /*Learning=*/true, Actions.data());
  }
};

} // namespace

TEST(RlParallel, SteadyStateStepDoesNotAllocate) {
  expectSteadyStateDoesNotAllocate<RlStepWork<1>>(1, "RL step, K = 1");
  expectSteadyStateDoesNotAllocate<RlStepWork<4>>(1, "RL step, K = 4");
  nn::setBackend(nn::defaultBackend());
}

TEST(RlParallel, SteadyStateStepDoesNotAllocateAtFourThreads) {
  expectSteadyStateDoesNotAllocate<RlStepWork<1>>(4, "RL step, K = 1");
  expectSteadyStateDoesNotAllocate<RlStepWork<4>>(4, "RL step, K = 4");
  nn::setBackend(nn::defaultBackend());
  ThreadPool::setGlobalThreads(1);
}
