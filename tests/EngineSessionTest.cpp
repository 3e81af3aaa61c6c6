//===- tests/EngineSessionTest.cpp - Engine/Session architecture ---------===//
//
// The Engine/Session split of DESIGN.md §10: store-divergence detection,
// published-snapshot/live prediction equivalence, the
// cross-session inference batcher, and a multi-tenant stress test with
// concurrent TS readers under a live TR trainer. The stress test doubles as
// a race detector under the TSan CI job.
//
//===----------------------------------------------------------------------===//

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

  Session Live(Eng, Mode::TS);
  Session Shared(Eng, Mode::TS);
  Shared.setSharedInference(true);

  NameId Feat = Live.intern("feat");
  WriteBackHandle Out{Live.intern("out"), OutDim};

  float X[FeatDim];
  probeRow(0, X);
  float FromLive[OutDim], FromShared[OutDim];

  Live.extract(Feat, FeatDim, X);
  Live.nn(ModelId, Feat, {Out});
  Live.writeBack(Out.Name, OutDim, FromLive);

  Shared.extract(Feat, FeatDim, X);
  Shared.nn(ModelId, Feat, {Out});
  Shared.writeBack(Out.Name, OutDim, FromShared);

  // The published snapshot is a packed copy of the live network, served by
  // the same nn::predictRows routine, so the results are bitwise identical.
  EXPECT_EQ(Shared.servingVersion(ModelId), Eng.modelVersion(ModelId));
  for (int J = 0; J < OutDim; ++J)
    EXPECT_EQ(FromLive[J], FromShared[J]);
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
  for (int KR = 0; KR < NumReaders; ++KR) {
    Readers.push_back(std::make_unique<Session>(Eng, Mode::TS));
    Readers.back()->setSharedInference(true);
  }

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
