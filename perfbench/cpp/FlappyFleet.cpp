//===- perfbench/cpp/FlappyFleet.cpp - Lockstep actor fleet ---------------===//
//
// flappy_fleet: 8 Flappy actors in lockstep ticks, mirroring
// trainRlParallel. Each lane is its own TR Session over one Engine. A tick
// is one parallelFor for extraction, one fused Engine::nnRlSessions step
// (TrainInterval = 8, so one minibatch per tick) and one parallelFor for
// write-back plus env step. Finished episodes restart on fresh jitters; no
// checkpointing. The replay warm-up runs during set-up.
//
// Checks: every action written back is in range; at the end the learner
// ran exactly the minibatches its QConfig schedule implies.
//
//===----------------------------------------------------------------------===//

#include "FlappyCommon.h"

#include "support/Rng.h"
#include "support/ThreadPool.h"

using namespace pb;
using namespace au;
using au::apps::FlappyEnv;

namespace {

constexpr int K = 8;

class FlappyFleet final : public Workload {
public:
  explicit FlappyFleet(const Options &O) : Seed(O.Seed) {
    QCfg.TrainInterval = K;
  }

  void setup() override {
    // Sessions refer to their Engine, so they go first.
    Lanes.clear();
    Main.reset();
    Eng.reset();
    Eng = std::make_unique<Engine>();
    Main = std::make_unique<Session>(*Eng, Mode::TR);
    RlModel *M = configFlappyModel(*Main, Seed, QCfg);
    M->configureActors(K);
    ModelId = Main->intern("flappybird_all");
    Out = {Main->intern("output"), FlappyActions};
    Feats.clear();
    for (const std::string &Name : flappyFeatureNames())
      Feats.push_back(Main->intern(Name));
    // Lanes come after every name is interned, so each mirrors them all.
    Ptrs.clear();
    Games.clear();
    Level = flappyLevel(Seed);
    Jitters = Rng(mixSeed(Seed, 13));
    for (int A = 0; A < K; ++A) {
      Lanes.push_back(std::make_unique<Session>(*Eng, Mode::TR));
      Ptrs.push_back(Lanes.back().get());
      Games.push_back(std::make_unique<FlappyEnv>());
      Span Sp(SpanName::AppsEnvReset);
      Games.back()->reset(flappySeed(Level, Jitters.uniformInt(256)));
    }
    FeatIdx = flappyFeatureIdx(*Games[0]);
    for (int A = 0; A < K; ++A) {
      Rewards[A] = 0.0f;
      Terms[A] = 0;
      EpSteps[A] = 0;
      HavePrev[A] = 0;
    }
    Transitions = ExpectedTrain = Ticks = 0;
    Learner = nullptr;
    SetupChecks = LoopStats();

    while (Transitions < QCfg.WarmupSteps)
      tick(SetupChecks, /*Timed=*/false);
  }

  void run(double Seconds, LoopStats &L) override {
    timedLoop(Seconds, L, [&] { return tick(L); });
  }

  void finish(LoopStats &L) override {
    L.Attempted += SetupChecks.Attempted;
    L.Failed += SetupChecks.Failed;
    L.check(Learner && Learner->trainStepsRun() == ExpectedTrain &&
            Learner->stepsObserved() == Transitions);
  }

  double flops() override {
    double F = static_cast<double>(Ticks) * K * flappyRowFlops();
    if (Learner)
      F += static_cast<double>(Learner->trainStepsRun()) *
           flappyTrainStepFlops(QCfg);
    return F;
  }

  void layerValues(Values &V) override {
    V["nn.train_steps"] = Learner ? Learner->trainStepsRun() : 0;
    V["nn.train_set_size"] = Learner ? Learner->replaySize() : 0;
  }

  void aliases(std::vector<std::pair<std::string, std::string>> &A) override {
    A = {{"env_steps_per_s", "work_per_s"},
         {"tick_us_p50", "iter_us_p50"},
         {"tick_us_p99", "iter_us_p99"}};
  }

  double plainIterNs() override { return plainFlappyTickNs(Seed, K, 0.3); }

  int streams() const override { return 1 + K; }

private:
  /// Runs \p Body(lane) for every lane in one parallelFor, each lane's
  /// chunk in its own trace stream.
  template <typename F> void forLanes(F Body) {
    Span P(SpanName::PoolParallelFor, 0, K);
    if (Tracer *T = Tracer::active())
      T->forkLanes(P.index());
    ThreadPool::global().parallelFor(0, K, 1, [&](size_t B, size_t E) {
      for (size_t A = B; A != E; ++A) {
        Span C(SpanName::PoolChunk, static_cast<int>(1 + A));
        Body(static_cast<int>(A));
      }
    });
  }

  /// Extract + serialize lane \p A's state into its own session.
  void extractLane(int A) {
    int Stream = 1 + A;
    Session &S = *Lanes[static_cast<size_t>(A)];
    std::vector<apps::Feature> Fs;
    {
      Span Sp(SpanName::AppsEnvFeatures, Stream);
      Fs = Games[static_cast<size_t>(A)]->features();
    }
    for (size_t I = 0; I != Feats.size(); ++I) {
      Span Sp(SpanName::SessionExtract, Stream, 1);
      S.extract(Feats[I], Fs[FeatIdx[I]].second);
    }
    Span Sp(SpanName::SessionSerialize, Stream);
    ExtIds[A] = S.serialize(Feats);
  }

  /// Write back and step lane \p A (lanes whose episode just ended skip
  /// both; their au_NN carried the terminal signal).
  void stepLane(int A) {
    if (!Stepping[A])
      return;
    int Stream = 1 + A;
    {
      Span Sp(SpanName::SessionWriteBack, Stream);
      Lanes[static_cast<size_t>(A)]->writeBack(Out.Name, FlappyActions,
                                                &Actions[A]);
    }
    FlappyEnv &G = *Games[static_cast<size_t>(A)];
    {
      Span Sp(SpanName::AppsEnvStep, Stream);
      StepRewards[A] = G.step(Actions[A]);
    }
    NewTerms[A] = G.terminal() ? 1 : 0;
  }

  /// One lockstep tick; returns the ns its checks took.
  int64_t tick(LoopStats &L, bool Timed = true) {
    if (Tracer *T = Tracer::active(); T && Timed)
      T->setIter(++IterNo);
    int64_t T0 = nowNs();
    double Units = 0.0;
    {
      Span It(SpanName::LoopIter);
      forLanes([&](int A) { extractLane(A); });
      {
        Span Sp(SpanName::EngineNnRl, 0, K);
        Eng->nnRlSessions(ModelId, Ptrs.data(), ExtIds, Rewards, Terms, K,
                          Out, /*Learning=*/true);
      }
      // The batched step observes one transition per lane whose previous
      // au_NN did not end an episode, then advances the schedule once.
      for (int A = 0; A < K; ++A) {
        if (HavePrev[A] && ++Transitions >= QCfg.WarmupSteps &&
            Transitions % QCfg.TrainInterval == 0)
          ++ExpectedTrain;
        HavePrev[A] = !Terms[A];
        Stepping[A] = !Terms[A];
        Actions[A] = -1;
      }
      forLanes([&](int A) { stepLane(A); });
      // Serial episode bookkeeping in fixed lane order.
      for (int A = 0; A < K; ++A) {
        if (!Stepping[A]) {
          EpSteps[A] = 0;
          Rewards[A] = 0.0f;
          Terms[A] = 0;
          Span Sp(SpanName::AppsEnvReset);
          Games[static_cast<size_t>(A)]->reset(
              flappySeed(Level, Jitters.uniformInt(256)));
          continue;
        }
        Rewards[A] = StepRewards[A];
        Terms[A] = NewTerms[A];
        Units += 1.0;
        if (++EpSteps[A] >= FlappyMaxEpisodeSteps)
          Terms[A] = 1; // Truncate over-long episodes.
      }
    }
    int64_t T1 = nowNs();
    ++Ticks;
    L.addIter(T1 - T0, Units);
    L.addLatency(static_cast<double>(T1 - T0) * 1e-3);

    if (!Learner)
      Learner = static_cast<RlModel *>(Eng->getModel(ModelId))->learner();
    for (int A = 0; A < K; ++A)
      if (Stepping[A])
        L.check(Actions[A] >= 0 && Actions[A] < FlappyActions);
    return nowNs() - T1;
  }

  uint64_t Seed;
  nn::QConfig QCfg;
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<Session> Main;
  std::vector<std::unique_ptr<Session>> Lanes;
  std::vector<Session *> Ptrs;
  std::vector<std::unique_ptr<FlappyEnv>> Games;
  NameId ModelId = InvalidNameId;
  WriteBackHandle Out;
  std::vector<NameId> Feats;
  std::vector<size_t> FeatIdx;
  nn::QLearner *Learner = nullptr;
  uint64_t Level = 0;
  Rng Jitters;
  NameId ExtIds[K] = {};
  float Rewards[K] = {}, StepRewards[K] = {};
  uint8_t Terms[K] = {}, NewTerms[K] = {}, Stepping[K] = {}, HavePrev[K] = {};
  int EpSteps[K] = {}, Actions[K] = {};
  long Transitions = 0, ExpectedTrain = 0, Ticks = 0;
  uint32_t IterNo = 0;
  LoopStats SetupChecks;
};

} // namespace

std::unique_ptr<Workload> pb::makeFlappyFleet(const Options &O) {
  return std::make_unique<FlappyFleet>(O);
}
