//===- apps/common/RlHarness.cpp - Autonomization harness for RL ---------===//

#include "apps/common/RlHarness.h"

#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace au;
using namespace au::apps;

/// Level seeds carry the layout in the high bits and a per-episode jitter
/// in the low byte (see GameEnv).
static uint64_t makeSeed(uint64_t LevelSeed, uint64_t Episode) {
  return (LevelSeed << 8) | (Episode & 0xff);
}

std::string au::apps::rlModelName(const GameEnv &Env, RlVariant V) {
  return std::string(Env.name()) + (V == RlVariant::All ? "_all" : "_raw");
}

std::vector<std::string>
au::apps::selectRlFeatures(GameEnv &Env, double Epsilon1, double Epsilon2,
                           int ProfileSteps,
                           analysis::RlExtractionStats *Stats) {
  analysis::Tracer T;
  Env.profile(T, ProfileSteps);
  std::vector<std::string> Selected = analysis::extractRlFeaturesCombined(
      T, Env.targetVariables(), Epsilon1, Epsilon2, Stats);
  // Keep only variables the program can hand to au_extract every frame.
  Env.reset(0);
  std::vector<Feature> Live = Env.features();
  std::vector<std::string> Usable;
  for (const std::string &Name : Selected) {
    bool Found = false;
    for (const Feature &F : Live)
      Found = Found || F.first == Name;
    if (Found)
      Usable.push_back(Name);
  }
  assert(!Usable.empty() && "feature selection produced nothing extractable");
  return Usable;
}

namespace {
/// Interned handles for one drive loop (DESIGN.md §7): names are resolved
/// to NameIds once here, so the per-step extract/serialize/nn/write_back
/// path neither hashes nor copies a string. Handles come from the engine's
/// master name table, so one handle set is valid in every Session of the
/// engine, every lane session included. Feature
/// positions within Env.features() are resolved once too, replacing the
/// per-step linear name search.
struct RlHandles {
  NameId Model = InvalidNameId;
  NameId Img = InvalidNameId;
  WriteBackHandle Output;
  std::vector<NameId> Features;   ///< Parallel to Opt.FeatureNames.
  std::vector<size_t> FeatureIdx; ///< Position in Env.features().
};

/// K lane Sessions over one Engine, one per env (the DESIGN.md §10 shape of
/// the §8 actor fleet). Sessions are created mirroring the full master name table,
/// so handles interned beforehand index every lane store. On destruction
/// nothing folds automatically — callers fold the lanes' primitive counters
/// into the session whose stats they report (foldInto).
struct SessionPool {
  std::vector<std::unique_ptr<Session>> Lanes;
  std::vector<Session *> Ptrs; ///< Engine batcher argument form.

  SessionPool(Engine &Eng, Mode M, int K) {
    Lanes.reserve(static_cast<size_t>(K));
    Ptrs.reserve(static_cast<size_t>(K));
    for (int A = 0; A != K; ++A) {
      Lanes.push_back(std::make_unique<Session>(Eng, M));
      Ptrs.push_back(Lanes.back().get());
    }
  }

  Session &lane(int A) { return *Lanes[static_cast<size_t>(A)]; }

  void foldInto(Session &Main) {
    for (auto &L : Lanes)
      Main.foldStats(L->stats());
  }
};
} // namespace

/// Interns the loop's names and resolves the positions of
/// Opt.FeatureNames within Env.features() (\p Env must have been reset at
/// least once). Every env exposes its features in a fixed order, so the
/// positions hold for the whole run and for every env of the same game.
static RlHandles makeHandles(GameEnv &Env, Session &S,
                             const RlTrainOptions &Opt) {
  RlHandles H;
  H.Model = S.intern(rlModelName(Env, Opt.Variant));
  H.Output = {S.intern("output"), Env.numActions()};
  if (Opt.Variant == RlVariant::Raw) {
    H.Img = S.intern("IMG");
    return H;
  }
  std::vector<Feature> Fs = Env.features();
  H.Features.reserve(Opt.FeatureNames.size());
  H.FeatureIdx.reserve(Opt.FeatureNames.size());
  for (const std::string &Name : Opt.FeatureNames) {
    H.Features.push_back(S.intern(Name));
    size_t Idx = Fs.size();
    for (size_t I = 0; I != Fs.size(); ++I)
      if (Fs[I].first == Name) {
        Idx = I;
        break;
      }
    assert(Idx < Fs.size() && "selected feature not exposed by the env");
    H.FeatureIdx.push_back(Idx);
  }
  return H;
}

/// Runs the au_extract / au_serialize prologue of one loop iteration into
/// \p S and returns the combined extraction handle to feed au_NN. Only
/// reads \p H, so distinct lane sessions may run it concurrently.
static NameId extractState(GameEnv &Env, Session &S,
                           const RlTrainOptions &Opt, const RlHandles &H) {
  if (Opt.Variant == RlVariant::Raw) {
    Image Frame = Env.renderFrame(Opt.FrameSide);
    S.extract(H.Img, Frame.size(), Frame.data().data());
    return H.Img;
  }
  std::vector<Feature> Fs = Env.features();
  for (size_t I = 0, E = H.Features.size(); I != E; ++I) {
    assert(Fs[H.FeatureIdx[I]].first == Opt.FeatureNames[I] &&
           "env feature order changed between steps");
    S.extract(H.Features[I], Fs[H.FeatureIdx[I]].second);
  }
  return S.serialize(H.Features);
}

/// Configures (or finds) the model for this env/variant pair.
static Model *configureModel(GameEnv &Env, Session &S,
                             const RlTrainOptions &Opt) {
  ModelConfig C;
  C.Name = rlModelName(Env, Opt.Variant);
  C.Type = Opt.Variant == RlVariant::Raw ? ModelType::CNN : ModelType::DNN;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = Opt.Hidden;
  C.FrameSide = Opt.FrameSide;
  C.FrameChannels = 1;
  C.Seed = Opt.Seed + (Opt.Variant == RlVariant::Raw ? 1000 : 0);
  Model *M = S.config(C);
  if (!M->isBuilt())
    static_cast<RlModel *>(M)->setQConfig(Opt.QCfg);
  return M;
}

/// The level seed of lane \p Lane's \p Episodes-th fresh episode in a
/// K-lane run: a pure function of the seed and the episode count, and
/// makeSeed(LevelSeed, Episodes) when K = 1.
static uint64_t laneSeed(uint64_t LevelSeed, size_t Lane, size_t K,
                         long Episodes) {
  return makeSeed(LevelSeed, static_cast<uint64_t>(Episodes) * K + Lane);
}

RlTrainResult au::apps::trainRl(const std::vector<GameEnv *> &Envs,
                                Session &Main, const RlTrainOptions &Opt) {
  assert(Main.mode() == Mode::TR && "training requires TR mode");
  assert(!Envs.empty() && "training needs at least one env");
  const size_t K = Envs.size();
  RlTrainResult Res;
  Res.ModelName = rlModelName(*Envs[0], Opt.Variant);
  Model *M = configureModel(*Envs[0], Main, Opt);
  static_cast<RlModel *>(M)->configureActors(static_cast<int>(K));
  for (size_t A = 0; A != K; ++A)
    Envs[A]->reset(laneSeed(Opt.Seed, A, K, 0));
  RlHandles H = makeHandles(*Envs[0], Main, Opt);

  // The lane sessions come after every name is interned, so each lane store
  // mirrors the full master table from birth. Each lane checkpoints its own
  // env into its own manager.
  Engine &Eng = Main.engine();
  SessionPool Pool(Eng, Mode::TR, static_cast<int>(K));
  for (size_t A = 0; A != K; ++A) {
    Session &S = Pool.lane(static_cast<int>(A));
    S.checkpoints().registerObject(Envs[A]);
    Timer T;
    S.checkpoint();
    Res.CheckpointSeconds += T.seconds() / static_cast<double>(K);
  }

  /// Per-lane episode bookkeeping, touched only by the lane's own chunk.
  struct LaneState {
    long Episodes = 0;
    int EpisodeSteps = 0;
    bool Stepped = false; ///< This tick stepped the env (else: new episode).
    long Restores = 0;
    double RestoreSeconds = 0.0;
  };
  std::vector<LaneState> Lanes(K);
  std::vector<NameId> ExtIds(K, InvalidNameId);
  std::vector<float> Rewards(K, 0.0f);
  std::vector<uint8_t> Terms(K, 0);

  /// Lane \p A's half of a tick after the fused au_NN: write the action
  /// back, then either act or, when that au_NN carried the terminal
  /// signal, start the next episode by au_restore or a fresh au_checkpoint.
  auto ActLane = [&](size_t A) {
    Session &S = Pool.lane(static_cast<int>(A));
    GameEnv &Env = *Envs[A];
    LaneState &L = Lanes[A];
    int Action = 0;
    S.writeBack(H.Output.Name, Env.numActions(), &Action);
    L.Stepped = !Terms[A];
    if (Terms[A]) {
      ++L.Episodes;
      L.EpisodeSteps = 0;
      Rewards[A] = 0.0f;
      Terms[A] = 0;
      if (L.Episodes % 8 == 0) {
        // Periodically start from a fresh jittered episode (and re-arm the
        // checkpoint) so learning sees level variation.
        Env.reset(laneSeed(Opt.Seed, A, K, L.Episodes));
        S.checkpoint();
      } else {
        Timer T;
        S.restore();
        L.RestoreSeconds += T.seconds();
        ++L.Restores;
      }
      return;
    }
    Rewards[A] = Env.step(Action);
    Terms[A] = Env.terminal() ? 1 : 0;
    if (++L.EpisodeSteps >= Opt.MaxEpisodeSteps)
      Terms[A] = 1; // Truncate over-long episodes.
  };

  size_t TraceStart = Main.stats().traceBytes();
  ThreadPool &TPool = ThreadPool::global();
  Timer TrainTimer;
  while (Res.StepsRun < Opt.TrainSteps) {
    // Extract + serialize every lane's state into its own session
    // (disjoint stores; parallel).
    TPool.parallelFor(0, K, 1, [&](size_t B, size_t E) {
      for (size_t A = B; A != E; ++A)
        ExtIds[A] = extractState(*Envs[A], Pool.lane(static_cast<int>(A)),
                                 Opt, H);
    });
    // One fused au_NN: observe the completed transitions, advance the
    // training schedule, select K actions with a single batched forward.
    Eng.nnRlSessions(H.Model, Pool.Ptrs.data(), ExtIds.data(), Rewards.data(),
                     Terms.data(), static_cast<int>(K), H.Output,
                     /*Learning=*/true);
    TPool.parallelFor(0, K, 1, [&](size_t B, size_t E) {
      for (size_t A = B; A != E; ++A)
        ActLane(A);
    });

    long PrevSteps = Res.StepsRun;
    for (const LaneState &L : Lanes) {
      if (L.Stepped)
        ++Res.StepsRun;
      else
        ++Res.Episodes;
    }
    // Periodic greedy evaluation, once per EvalEvery boundary crossed (a
    // tick advances up to K steps at once).
    if (Opt.EvalEvery > 0 &&
        Res.StepsRun / Opt.EvalEvery > PrevSteps / Opt.EvalEvery) {
      RlEvalResult E = evalRl(Envs, Main, Opt, Opt.EvalEpisodes);
      Res.Curve.push_back({Res.StepsRun, E.MeanProgress, E.SuccessRate});
    }
  }

  Res.TrainSeconds = TrainTimer.seconds();
  Pool.foldInto(Main);
  Res.TraceBytes = Main.stats().traceBytes() - TraceStart;
  Res.ModelBytes = M->modelSizeBytes();
  Res.NumParams = M->numParams();
  long Restores = 0;
  double RestoreTotal = 0.0;
  for (const LaneState &L : Lanes) {
    Restores += L.Restores;
    RestoreTotal += L.RestoreSeconds;
  }
  if (Restores > 0)
    Res.RestoreSeconds = RestoreTotal / static_cast<double>(Restores);
  return Res;
}

RlEvalResult au::apps::evalRl(const std::vector<GameEnv *> &Envs,
                              Session &Main, const RlTrainOptions &Opt,
                              int Episodes) {
  assert(Episodes > 0 && "evaluation needs at least one episode");
  assert(!Envs.empty() && "evaluation needs at least one env");
  const size_t L = std::min(Envs.size(), static_cast<size_t>(Episodes));

  // Evaluation must not disturb training: stash each env's state, and play
  // on deployment-mode lanes (learning is off at the engine batcher, so the
  // training chains are never touched, whatever Main's mode).
  std::vector<std::vector<uint8_t>> Saved(L);
  for (size_t I = 0; I != L; ++I)
    Envs[I]->saveState(Saved[I]);

  std::vector<double> Progress(static_cast<size_t>(Episodes), 0.0);
  std::vector<uint8_t> Success(static_cast<size_t>(Episodes), 0);
  std::vector<int> Episode(L), EpSteps(L);
  /// Starts lane \p I's episode \p Ep (episodes i, i + L, ...), recording
  /// and skipping any that end before a first step; an exhausted lane gets
  /// Episode >= Episodes.
  auto Start = [&](size_t I, int Ep) {
    GameEnv &Env = *Envs[I];
    for (; Ep < Episodes; Ep += static_cast<int>(L)) {
      Env.reset(makeSeed(Opt.Seed, 100 + static_cast<uint64_t>(Ep)));
      if (!Env.terminal() && Opt.MaxEpisodeSteps > 0)
        break;
      Progress[static_cast<size_t>(Ep)] = Env.progress();
      Success[static_cast<size_t>(Ep)] = Env.success() ? 1 : 0;
    }
    Episode[I] = Ep;
    EpSteps[I] = 0;
  };
  for (size_t I = 0; I != L; ++I)
    Start(I, static_cast<int>(I));
  RlHandles H = makeHandles(*Envs[0], Main, Opt);
  assert(Main.getModel(H.Model) && "evaluating an unconfigured model");
  // After the names are interned, so each lane store mirrors them all.
  SessionPool Pool(Main.engine(), Mode::TS, static_cast<int>(L));

  // Live lanes run in lockstep; the batcher's row j is the j-th live lane.
  std::vector<size_t> Live;
  std::vector<Session *> LivePtrs;
  std::vector<NameId> ExtIds;
  std::vector<float> ZeroRewards(L, 0.0f);
  std::vector<uint8_t> NoTerms(L, 0);
  ThreadPool &TPool = ThreadPool::global();
  double StepTime = 0.0;
  long Steps = 0;
  for (;;) {
    Live.clear();
    LivePtrs.clear();
    for (size_t I = 0; I != L; ++I)
      if (Episode[I] < Episodes) {
        Live.push_back(I);
        LivePtrs.push_back(Pool.Ptrs[I]);
      }
    if (Live.empty())
      break;
    size_t N = Live.size();
    ExtIds.assign(N, InvalidNameId);
    Timer T;
    TPool.parallelFor(0, N, 1, [&](size_t B, size_t E) {
      for (size_t J = B; J != E; ++J)
        ExtIds[J] = extractState(*Envs[Live[J]], *LivePtrs[J], Opt, H);
    });
    Main.engine().nnRlSessions(H.Model, LivePtrs.data(), ExtIds.data(),
                               ZeroRewards.data(), NoTerms.data(),
                               static_cast<int>(N), H.Output,
                               /*Learning=*/false);
    TPool.parallelFor(0, N, 1, [&](size_t B, size_t E) {
      for (size_t J = B; J != E; ++J) {
        GameEnv &Env = *Envs[Live[J]];
        int Action = 0;
        LivePtrs[J]->writeBack(H.Output.Name, Env.numActions(), &Action);
        Env.step(Action);
      }
    });
    StepTime += T.seconds();
    Steps += static_cast<long>(N);

    for (size_t I : Live) {
      GameEnv &Env = *Envs[I];
      if (!Env.terminal() && ++EpSteps[I] < Opt.MaxEpisodeSteps)
        continue;
      Progress[static_cast<size_t>(Episode[I])] = Env.progress();
      Success[static_cast<size_t>(Episode[I])] = Env.success() ? 1 : 0;
      Start(I, Episode[I] + static_cast<int>(L));
    }
  }

  RlEvalResult Res;
  for (int Ep = 0; Ep < Episodes; ++Ep) {
    Res.MeanProgress += Progress[static_cast<size_t>(Ep)];
    Res.SuccessRate += Success[static_cast<size_t>(Ep)] ? 1.0 : 0.0;
  }
  Res.MeanProgress /= Episodes;
  Res.SuccessRate /= Episodes;
  Res.MeanStepSeconds = Steps > 0 ? StepTime / static_cast<double>(Steps) : 0;

  for (size_t I = 0; I != L; ++I)
    Envs[I]->loadState(Saved[I]);
  Pool.foldInto(Main);
  return Res;
}

/// Shared scripted-policy evaluation loop.
static RlEvalResult evalScripted(GameEnv &Env, const RlTrainOptions &Opt,
                                 int Episodes, bool Random) {
  RlEvalResult Res;
  Rng R(Opt.Seed * 77 + 5);
  double StepTime = 0.0;
  long Steps = 0;
  for (int Ep = 0; Ep < Episodes; ++Ep) {
    Env.reset(makeSeed(Opt.Seed, 100 + static_cast<uint64_t>(Ep)));
    int EpSteps = 0;
    while (!Env.terminal() && EpSteps < Opt.MaxEpisodeSteps) {
      Timer T;
      int Action = Random ? static_cast<int>(R.uniformInt(Env.numActions()))
                          : Env.heuristicAction(R);
      Env.step(Action);
      StepTime += T.seconds();
      ++Steps;
      ++EpSteps;
    }
    Res.MeanProgress += Env.progress();
    Res.SuccessRate += Env.success() ? 1.0 : 0.0;
  }
  Res.MeanProgress /= Episodes;
  Res.SuccessRate /= Episodes;
  Res.MeanStepSeconds = Steps > 0 ? StepTime / static_cast<double>(Steps) : 0;
  return Res;
}

RlEvalResult au::apps::evalHeuristic(GameEnv &Env, const RlTrainOptions &Opt,
                                     int Episodes) {
  return evalScripted(Env, Opt, Episodes, /*Random=*/false);
}

RlEvalResult au::apps::evalRandom(GameEnv &Env, const RlTrainOptions &Opt,
                                  int Episodes) {
  return evalScripted(Env, Opt, Episodes, /*Random=*/true);
}

double au::apps::baselineStepSeconds(GameEnv &Env, const RlTrainOptions &Opt,
                                     int Episodes) {
  RlEvalResult R = evalScripted(Env, Opt, Episodes, /*Random=*/false);
  return R.MeanStepSeconds;
}
