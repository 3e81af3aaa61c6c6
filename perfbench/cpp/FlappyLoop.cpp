//===- perfbench/cpp/FlappyLoop.cpp - The annotated RL game loop ----------===//
//
// flappy_loop: the paper's annotated RL training loop on Flappy, following
// trainRl's schedule on one TR Session of one Engine:
//
//   reset -> au_checkpoint ->
//   loop { au_extract x5 ; au_serialize ; au_NN(reward, term) ;
//          au_write_back(action) ; step ; if (term) au_restore }
//
// with a fresh jittered episode and a new au_checkpoint every eighth
// episode, and TrainInterval = 1 so one minibatch runs per observed step.
// The replay warm-up runs during set-up, so every timed step trains.
//
// Checks: every action is in range; after every au_restore the game state
// is byte-equal to the state saved at the checkpoint; at the end the
// learner ran exactly the minibatches its QConfig schedule implies.
//
//===----------------------------------------------------------------------===//

#include "FlappyCommon.h"

#include "support/Rng.h"

using namespace pb;
using namespace au;
using au::apps::FlappyEnv;

namespace {

class FlappyLoop final : public Workload {
public:
  explicit FlappyLoop(const Options &O) : Seed(O.Seed) {}

  void setup() override {
    // Sessions refer to their Engine, so they go first.
    S.reset();
    Eng.reset();
    Eng = std::make_unique<Engine>();
    S = std::make_unique<Session>(*Eng, Mode::TR);
    Env = std::make_unique<FlappyEnv>();
    configFlappyModel(*S, Seed, QCfg);
    ModelId = S->intern("flappybird_all");
    Out = {S->intern("output"), FlappyActions};
    Feats.clear();
    for (const std::string &Name : flappyFeatureNames())
      Feats.push_back(S->intern(Name));
    Level = flappyLevel(Seed);
    Jitters = Rng(mixSeed(Seed, 13));
    Reward = 0.0f;
    Term = false;
    EpSteps = 0;
    Episodes = 0;
    HavePrev = false;
    Transitions = ExpectedTrain = NnCalls = 0;
    Learner = nullptr;
    SetupChecks = LoopStats();

    S->checkpoints().registerObject(Env.get());
    {
      Span Sp(SpanName::AppsEnvReset);
      Env->reset(flappySeed(Level, Jitters.uniformInt(256)));
    }
    FeatIdx = flappyFeatureIdx(*Env);
    {
      Span Sp(SpanName::SessionCheckpoint);
      S->checkpoint();
    }
    Env->saveState(CkptState);

    // Replay warm-up: act until the learner is past its warm-up steps.
    while (Transitions < QCfg.WarmupSteps)
      iteration(SetupChecks, /*Timed=*/false);
  }

  void run(double Seconds, LoopStats &L) override {
    timedLoop(Seconds, L, [&] { return iteration(L); });
  }

  void finish(LoopStats &L) override {
    L.Attempted += SetupChecks.Attempted;
    L.Failed += SetupChecks.Failed;
    L.check(Learner && Learner->trainStepsRun() == ExpectedTrain &&
            Learner->stepsObserved() == Transitions);
  }

  double flops() override {
    double F = static_cast<double>(NnCalls) * flappyRowFlops();
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
         {"iter_us_p50", "iter_us_p50"},
         {"iter_us_p99", "iter_us_p99"}};
  }

  double plainIterNs() override { return plainFlappyTickNs(Seed, 1, 0.3); }

private:
  /// One annotated game-loop iteration; returns the ns its checks took.
  /// Set-up iterations keep trace iteration id 0.
  int64_t iteration(LoopStats &L, bool Timed = true) {
    if (Tracer *T = Tracer::active(); T && Timed)
      T->setIter(++IterNo);
    int64_t T0 = nowNs();
    int Action = -1;
    bool Restored = false, Rearmed = false;
    double Units = 0.0;
    {
      Span It(SpanName::LoopIter);
      std::vector<apps::Feature> Fs;
      {
        Span Sp(SpanName::AppsEnvFeatures);
        Fs = Env->features();
      }
      for (size_t I = 0; I != Feats.size(); ++I) {
        Span Sp(SpanName::SessionExtract, 0, 1);
        S->extract(Feats[I], Fs[FeatIdx[I]].second);
      }
      NameId Ext;
      {
        Span Sp(SpanName::SessionSerialize);
        Ext = S->serialize(Feats);
      }
      {
        Span Sp(SpanName::SessionNn, 0, 1);
        S->nn(ModelId, Ext, Reward, Term, Out);
      }
      ++NnCalls;
      // The model observes a transition when the previous au_NN did not
      // end an episode; TrainInterval = 1 trains on every one once warm.
      if (HavePrev && ++Transitions >= QCfg.WarmupSteps &&
          Transitions % QCfg.TrainInterval == 0)
        ++ExpectedTrain;
      HavePrev = !Term;
      {
        Span Sp(SpanName::SessionWriteBack);
        S->writeBack(Out.Name, FlappyActions, &Action);
      }
      if (Term) {
        ++Episodes;
        EpSteps = 0;
        Reward = 0.0f;
        Term = false;
        if (Episodes % 8 == 0) {
          {
            Span Sp(SpanName::AppsEnvReset);
            Env->reset(flappySeed(Level, Jitters.uniformInt(256)));
          }
          Span Sp(SpanName::SessionCheckpoint);
          S->checkpoint();
          Rearmed = true;
        } else {
          Span Sp(SpanName::SessionRestore);
          S->restore();
          Restored = true;
        }
      } else {
        {
          Span Sp(SpanName::AppsEnvStep);
          Reward = Env->step(Action);
        }
        Term = Env->terminal();
        Units = 1.0;
        if (++EpSteps >= FlappyMaxEpisodeSteps)
          Term = true; // Truncate over-long episodes.
      }
    }
    int64_t T1 = nowNs();
    L.addIter(T1 - T0, Units);
    L.addLatency(static_cast<double>(T1 - T0) * 1e-3);

    if (!Learner)
      Learner = static_cast<RlModel *>(S->getModel(ModelId))->learner();
    bool Ok = Action >= 0 && Action < FlappyActions;
    if (Rearmed)
      Env->saveState(CkptState);
    if (Restored) {
      Env->saveState(Probe);
      Ok = Ok && Probe == CkptState;
    }
    L.check(Ok);
    return nowNs() - T1;
  }

  uint64_t Seed;
  nn::QConfig QCfg; // Defaults: TrainInterval = 1, BatchSize 32.
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<Session> S;
  std::unique_ptr<FlappyEnv> Env;
  NameId ModelId = InvalidNameId;
  WriteBackHandle Out;
  std::vector<NameId> Feats;
  std::vector<size_t> FeatIdx;
  nn::QLearner *Learner = nullptr;
  uint64_t Level = 0;
  Rng Jitters;
  float Reward = 0.0f;
  bool Term = false;
  int EpSteps = 0;
  long Episodes = 0;
  bool HavePrev = false;
  long Transitions = 0, ExpectedTrain = 0, NnCalls = 0;
  uint32_t IterNo = 0;
  std::vector<uint8_t> CkptState, Probe;
  LoopStats SetupChecks;
};

} // namespace

std::unique_ptr<Workload> pb::makeFlappyLoop(const Options &O) {
  return std::make_unique<FlappyLoop>(O);
}
