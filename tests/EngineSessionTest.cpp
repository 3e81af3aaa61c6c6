//===- tests/EngineSessionTest.cpp - Engine/Session architecture ---------===//
//
// The Engine/Session split of DESIGN.md §10: store-divergence detection,
// published-snapshot/live prediction equivalence, the
// cross-session inference batcher, concurrent default TS sessions, a
// multi-tenant stress test with concurrent TS readers under a live TR
// trainer, and the zero-allocation steady state of every au_NN form. The
// concurrent tests double as race detectors under the TSan CI job.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "core/Engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace au;

//===----------------------------------------------------------------------===//
// Store divergence (a real error path, not an assert)
//===----------------------------------------------------------------------===//

TEST(EngineSession, DirectStoreInternThrowsDivergenceError) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  S.intern("a");
  // Bypassing the session de-synchronizes the store's name table from the
  // engine's master table: positions no longer line up, so handles would
  // resolve to the wrong slots. The next intern must detect it — in
  // release builds too.
  S.db().intern("rogue");
  EXPECT_THROW(S.intern("b"), StoreDivergenceError);
}

TEST(EngineSession, DivergedSiblingStoreThrowsOnIntern) {
  Engine Eng;
  Session A(Eng, Mode::TR);
  Session B(Eng, Mode::TR);
  A.intern("a");
  B.db().intern("rogue");
  // The healthy sibling keeps interning; the diverged store trips when its
  // next intern() replays the names A added to the master table.
  EXPECT_NO_THROW(A.intern("b"));
  EXPECT_THROW(B.intern("c"), StoreDivergenceError);
}

TEST(EngineSession, SessionsMirrorNamesInternedAnywhere) {
  Engine Eng;
  Session A(Eng, Mode::TR);
  NameId X = A.intern("x");
  // A session created later starts with the full master table.
  Session B(Eng, Mode::TR);
  EXPECT_EQ(B.intern("x"), X);
  // A name interned through B is visible to A under the same id.
  NameId Y = B.intern("y");
  EXPECT_EQ(A.intern("y"), Y);
  EXPECT_EQ(Eng.nameOf(Y), "y");
}

//===----------------------------------------------------------------------===//
// Snapshot publication and shared serving
//===----------------------------------------------------------------------===//

namespace {
constexpr int FeatDim = 4;
constexpr int OutDim = 2;

/// Trains a small supervised DNN in \p Trainer (publishing a snapshot) and
/// returns its handle.
NameId trainSmallModel(Engine &Eng, Session &Trainer, const char *Name) {
  ModelConfig Cfg;
  Cfg.Name = Name;
  Cfg.HiddenLayers = {8, 8};
  Cfg.Seed = 99;
  Trainer.config(Cfg);
  NameId ModelId = Trainer.intern(Name);
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), OutDim};
  for (int I = 0; I < 32; ++I) {
    float X[FeatDim];
    for (int J = 0; J < FeatDim; ++J)
      X[J] = 0.1f * static_cast<float>(I + J);
    Trainer.extract(Feat, FeatDim, X);
    Trainer.nn(ModelId, Feat, {Out});
    float Label[OutDim] = {X[0] + X[1], X[2] - X[3]};
    Trainer.writeBack(Out.Name, OutDim, Label);
  }
  Trainer.trainSupervised(Name, /*Epochs=*/4, /*BatchSize=*/8);
  EXPECT_GT(Eng.modelVersion(ModelId), 0u);
  return ModelId;
}

void probeRow(int K, float *X) {
  for (int J = 0; J < FeatDim; ++J)
    X[J] = 0.3f + 0.05f * static_cast<float>(K) + 0.01f * static_cast<float>(J);
}
} // namespace

TEST(EngineSession, SharedInferenceMatchesLiveModelBitwise) {
  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");

  Session Reader(Eng, Mode::TS);
  NameId Feat = Reader.intern("feat");
  WriteBackHandle Out{Reader.intern("out"), OutDim};

  float X[FeatDim];
  probeRow(0, X);
  std::vector<float> FromLive;
  static_cast<SlModel *>(Eng.getModel(ModelId))
      ->predictRows(X, /*Rows=*/1, FromLive);

  float FromSession[OutDim];
  Reader.extract(Feat, FeatDim, X);
  Reader.nn(ModelId, Feat, {Out});
  Reader.writeBack(Out.Name, OutDim, FromSession);

  // A Session serves from the published snapshot, a packed copy of the
  // live network run by the same nn::predictRows routine, so its reply is
  // bitwise the live model's.
  EXPECT_EQ(Reader.servingVersion(ModelId), Eng.modelVersion(ModelId));
  ASSERT_EQ(FromLive.size(), static_cast<size_t>(OutDim));
  for (int J = 0; J < OutDim; ++J)
    EXPECT_EQ(FromSession[J], FromLive[static_cast<size_t>(J)]);
}

TEST(EngineSession, DefaultSessionsServeTheSnapshotConcurrently) {
  // Two default TS sessions on two threads serve a freshly trained model.
  // Both must read the published snapshot, never the live network, whose
  // forward repacks its weights on first use.
  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), OutDim};

  constexpr int NumReaders = 2, Reads = 50;
  std::vector<std::unique_ptr<Session>> Readers;
  for (int KR = 0; KR < NumReaders; ++KR)
    Readers.push_back(std::make_unique<Session>(Eng, Mode::TS));
  std::vector<std::vector<float>> Replies(NumReaders);
  std::vector<uint64_t> Versions(NumReaders, 0);

  std::vector<std::thread> Threads;
  for (int KR = 0; KR < NumReaders; ++KR)
    Threads.emplace_back([&, KR] {
      Session &S = *Readers[static_cast<size_t>(KR)];
      float X[FeatDim], Pred[OutDim];
      probeRow(KR, X);
      for (int I = 0; I < Reads; ++I) {
        S.extract(Feat, FeatDim, X);
        S.nn(ModelId, Feat, {Out});
        S.writeBack(Out.Name, OutDim, Pred);
      }
      Versions[static_cast<size_t>(KR)] = S.servingVersion(ModelId);
      Replies[static_cast<size_t>(KR)].assign(Pred, Pred + OutDim);
    });
  for (auto &T : Threads)
    T.join();

  auto *Sl = static_cast<SlModel *>(Eng.getModel(ModelId));
  for (int KR = 0; KR < NumReaders; ++KR) {
    EXPECT_EQ(Versions[static_cast<size_t>(KR)], Eng.modelVersion(ModelId))
        << "reader " << KR;
    float X[FeatDim];
    probeRow(KR, X);
    std::vector<float> Expected;
    Sl->predictRows(X, /*Rows=*/1, Expected);
    EXPECT_EQ(Replies[static_cast<size_t>(KR)], Expected) << "reader " << KR;
  }
}

TEST(EngineSession, NnBatchSessionsMatchesPerSessionCalls) {
  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");

  constexpr int K = 4;
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), OutDim};
  std::vector<WriteBackHandle> Outs{Out};

  // Batched: K sessions, one fused forward.
  std::vector<std::unique_ptr<Session>> Batch;
  std::vector<Session *> Ptrs;
  std::vector<NameId> ExtIds(K, Feat);
  for (int S = 0; S < K; ++S) {
    Batch.push_back(std::make_unique<Session>(Eng, Mode::TS));
    Ptrs.push_back(Batch.back().get());
    float X[FeatDim];
    probeRow(S, X);
    Batch.back()->extract(Feat, FeatDim, X);
  }
  Eng.nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), K, Outs);

  // Per-session: the same probe rows through the single-call path.
  for (int S = 0; S < K; ++S) {
    float FromBatch[OutDim], FromSingle[OutDim];
    Batch[static_cast<size_t>(S)]->writeBack(Out.Name, OutDim, FromBatch);

    Session Single(Eng, Mode::TS);
    float X[FeatDim];
    probeRow(S, X);
    Single.extract(Feat, FeatDim, X);
    Single.nn(ModelId, Feat, {Out});
    Single.writeBack(Out.Name, OutDim, FromSingle);

    for (int J = 0; J < OutDim; ++J)
      EXPECT_EQ(FromSingle[J], FromBatch[J]) << "session " << S;
    // Each session counted its own au_NN.
    EXPECT_EQ(Batch[static_cast<size_t>(S)]->stats().NumNn, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Multi-tenant stress: 8 concurrent TS readers under a live TR trainer
//===----------------------------------------------------------------------===//

TEST(EngineSessionStress, ConcurrentReadersUnderLiveTrainer) {
  constexpr int NumReaders = 8;
  constexpr int NumVersions = 12;
  constexpr int ReadsPerReader = 200;

  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M"); // publishes v1

  NameId Feat = Trainer.intern("feat");
  NameId OutName = Trainer.intern("out");

  // Expected[v][k]: the bitwise-exact prediction version v must produce
  // for reader k's probe row. Written by the trainer thread right after
  // publishing v; MaxVerified's release-store makes the slot visible.
  // Readers record their observations and the main thread checks them
  // after the join, so the readers themselves never race on Expected.
  std::vector<std::vector<float>> Expected(NumVersions + 1);
  std::atomic<uint64_t> MaxVerified{0};

  auto recordExpected = [&](uint64_t V) {
    ASSERT_LE(V, static_cast<uint64_t>(NumVersions));
    auto *Sl = static_cast<SlModel *>(Eng.getModel(ModelId));
    ASSERT_NE(Sl, nullptr);
    std::vector<float> Rows(static_cast<size_t>(NumReaders) * FeatDim);
    for (int KR = 0; KR < NumReaders; ++KR)
      probeRow(KR, Rows.data() + static_cast<size_t>(KR) * FeatDim);
    // The trainer owns the live model; published snapshots carry exactly
    // its parameters, and snapshot serving is bitwise-equal to this call.
    Sl->predictRows(Rows.data(), NumReaders, Expected[V]);
    MaxVerified.store(V, std::memory_order_release);
  };
  recordExpected(Eng.modelVersion(ModelId));

  // Reader sessions are created up front (session construction is cheap
  // but the test pins each thread to exactly one session for its
  // lifetime — the ISSUE's serving scenario).
  std::vector<std::unique_ptr<Session>> Readers;
  for (int KR = 0; KR < NumReaders; ++KR)
    Readers.push_back(std::make_unique<Session>(Eng, Mode::TS));

  struct Observation {
    uint64_t Version;
    float Pred[OutDim];
  };
  std::vector<std::vector<Observation>> Seen(NumReaders);
  std::atomic<bool> Stop{false}, TrainerDone{false};

  std::vector<std::thread> Threads;
  for (int KR = 0; KR < NumReaders; ++KR) {
    Threads.emplace_back([&, KR] {
      Session &S = *Readers[static_cast<size_t>(KR)];
      WriteBackHandle Out{OutName, OutDim};
      float X[FeatDim];
      probeRow(KR, X);
      uint64_t PrevV = 0;
      auto &Obs = Seen[static_cast<size_t>(KR)];
      Obs.reserve(ReadsPerReader);
      // Serve at least ReadsPerReader times, and on until the trainer has
      // published v2 (or given up), so the readers overlap a live
      // publication however the threads are scheduled.
      for (int I = 0;
           I < ReadsPerReader ||
           (MaxVerified.load(std::memory_order_acquire) < 2 &&
            !TrainerDone.load());
           ++I) {
        S.extract(Feat, FeatDim, X);
        S.nn(ModelId, Feat, {Out});
        Observation O;
        O.Version = S.servingVersion(ModelId);
        S.writeBack(Out.Name, OutDim, O.Pred);
        // Versions move forward only.
        ASSERT_GE(O.Version, PrevV);
        PrevV = O.Version;
        Obs.push_back(O);
      }
    });
  }

  // The trainer keeps updating the same model while the readers serve.
  std::thread TrainerThread([&] {
    for (int V = 2; V <= NumVersions && !Stop.load(); ++V) {
      Trainer.trainSupervised("M", /*Epochs=*/1, /*BatchSize=*/8);
      recordExpected(Eng.modelVersion(ModelId));
    }
    TrainerDone.store(true);
  });

  for (auto &T : Threads)
    T.join();
  Stop.store(true);
  TrainerThread.join();

  // Every observation must be snapshot-consistent: the prediction is
  // bitwise-exactly what its version's parameters produce — a torn or
  // mixed-parameter read cannot satisfy this.
  uint64_t Final = MaxVerified.load(std::memory_order_acquire);
  EXPECT_GE(Final, 2u) << "trainer should have published while serving";
  for (int KR = 0; KR < NumReaders; ++KR) {
    ASSERT_FALSE(Seen[static_cast<size_t>(KR)].empty());
    for (const auto &O : Seen[static_cast<size_t>(KR)]) {
      ASSERT_GE(O.Version, 1u);
      ASSERT_LE(O.Version, Final);
      const std::vector<float> &Exp = Expected[O.Version];
      ASSERT_EQ(Exp.size(), static_cast<size_t>(NumReaders) * OutDim);
      for (int J = 0; J < OutDim; ++J)
        ASSERT_EQ(O.Pred[J],
                  Exp[static_cast<size_t>(KR) * OutDim + static_cast<size_t>(J)])
            << "reader " << KR << " version " << O.Version;
    }
  }

  // The pi stores stayed isolated: each session consumed exactly its own
  // extractions (one row per call) and counted its own primitives.
  for (int KR = 0; KR < NumReaders; ++KR) {
    const SessionStats &St = Readers[static_cast<size_t>(KR)]->stats();
    size_t Reads = Seen[static_cast<size_t>(KR)].size();
    EXPECT_GE(Reads, static_cast<size_t>(ReadsPerReader));
    EXPECT_EQ(St.NumExtract, Reads);
    EXPECT_EQ(St.FloatsExtracted, Reads * FeatDim);
    EXPECT_EQ(St.NumNn, Reads);
    EXPECT_EQ(St.NumWriteBack, Reads);
  }
}

//===----------------------------------------------------------------------===//
// Every au_NN form allocates nothing in its steady state
//===----------------------------------------------------------------------===//

namespace {

/// One Flappy-shaped iteration of the paper's RL loop on a TR session:
/// five scalar extracts, a serialize, the RL au_NN (a minibatch due on
/// every call, a terminal step now and then) and the action write-back.
/// The replay ring is small and has wrapped before the first measured pass.
struct FlappyIterationWork {
  static constexpr int NumFeatures = 5;
  Engine Eng;
  Session S{Eng, Mode::TR};
  NameId ModelId = InvalidNameId;
  std::vector<NameId> Feats;
  WriteBackHandle Out;
  float Reward = 0.0f;
  long Tick = 0;

  FlappyIterationWork() {
    ModelConfig C;
    C.Name = "flappy";
    C.Algo = Algorithm::QLearn;
    C.HiddenLayers = {32, 32};
    C.Seed = 5;
    nn::QConfig Q;
    Q.ReplayCapacity = 16;
    Q.BatchSize = 8;
    Q.WarmupSteps = 8;
    Q.TargetSyncInterval = 5;
    Q.TrainInterval = 1;
    Q.EpsilonStart = Q.EpsilonEnd = 0.5;
    static_cast<RlModel *>(S.config(C))->setQConfig(Q);
    ModelId = S.intern("flappy");
    for (const char *F : {"birdY", "birdV", "pipeDx", "gap1Y", "diffY"})
      Feats.push_back(S.intern(F));
    Out = {S.intern("output"), 2};
    for (int I = 0; I < 40; ++I)
      pass();
  }

  void pass() {
    ++Tick;
    for (int J = 0; J < NumFeatures; ++J)
      S.extract(Feats[static_cast<size_t>(J)],
                static_cast<float>((Tick * 7 + J) % 11) * 0.1f);
    NameId Ext = S.serialize(Feats);
    S.nn(ModelId, Ext, Reward, /*Terminal=*/Tick % 9 == 0, Out);
    int Action = 0;
    S.writeBack(Out.Name, Out.Size, &Action);
    Reward = Action == 0 ? 0.5f : -0.5f;
  }
};

/// A TS session's supervised au_NN served from the published snapshot.
struct SnapshotServeWork {
  Engine Eng;
  Session Trainer{Eng, Mode::TR};
  Session Reader{Eng, Mode::TS};
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");
  NameId Feat = Reader.intern("feat");
  std::vector<WriteBackHandle> Outs{{Reader.intern("out"), OutDim}};
  float X[FeatDim];
  float Pred[OutDim];

  SnapshotServeWork() {
    probeRow(0, X);
    pass();
    EXPECT_EQ(Reader.servingVersion(ModelId), Eng.modelVersion(ModelId));
  }

  void pass() {
    Reader.extract(Feat, FeatDim, X);
    Reader.nn(ModelId, Feat, Outs);
    Reader.writeBack(Outs[0].Name, OutDim, Pred);
  }
};

/// One round of eight tenants served by Engine::nnBatchSessions.
struct TenantRoundWork {
  static constexpr int K = 8;
  Engine Eng;
  Session Trainer{Eng, Mode::TR};
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");
  NameId Feat = Trainer.intern("feat");
  std::vector<WriteBackHandle> Outs{{Trainer.intern("out"), OutDim}};
  std::vector<std::unique_ptr<Session>> Tenants;
  std::vector<Session *> Ptrs;
  std::vector<NameId> ExtIds = std::vector<NameId>(K, Feat);
  float Rows[K][FeatDim];
  float Pred[OutDim];

  TenantRoundWork() {
    for (int S = 0; S < K; ++S) {
      Tenants.push_back(std::make_unique<Session>(Eng, Mode::TS));
      Ptrs.push_back(Tenants.back().get());
      probeRow(S, Rows[S]);
    }
  }

  void pass() {
    for (int S = 0; S < K; ++S)
      Ptrs[static_cast<size_t>(S)]->extract(Feat, FeatDim, Rows[S]);
    Eng.nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), K, Outs);
    for (Session *S : Ptrs)
      S->writeBack(Outs[0].Name, OutDim, Pred);
  }
};

} // namespace

TEST(EngineSession, SteadyStateAuNnDoesNotAllocate) {
  expectSteadyStateDoesNotAllocate<FlappyIterationWork>(
      1, "Flappy iteration (RL Session::nn)");
  expectSteadyStateDoesNotAllocate<SnapshotServeWork>(
      1, "snapshot-served SL Session::nn");
  expectSteadyStateDoesNotAllocate<TenantRoundWork>(
      1, "8-tenant nnBatchSessions round");
  nn::setBackend(nn::defaultBackend());
}

TEST(EngineSession, SteadyStateAuNnDoesNotAllocateAtFourThreads) {
  expectSteadyStateDoesNotAllocate<FlappyIterationWork>(
      4, "Flappy iteration (RL Session::nn)");
  expectSteadyStateDoesNotAllocate<SnapshotServeWork>(
      4, "snapshot-served SL Session::nn");
  expectSteadyStateDoesNotAllocate<TenantRoundWork>(
      4, "8-tenant nnBatchSessions round");
  nn::setBackend(nn::defaultBackend());
  ThreadPool::setGlobalThreads(1);
}
