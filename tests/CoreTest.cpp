//===- tests/CoreTest.cpp - Unit tests for the Autonomizer core ----------===//

#include "core/Checkpoint.h"
#include "core/DatabaseStore.h"
#include "core/Model.h"
#include "core/Engine.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace au;
using au::test::TempPath;

//===----------------------------------------------------------------------===//
// DatabaseStore (pi)
//===----------------------------------------------------------------------===//

TEST(DatabaseStoreTest, AppendConcatenates) {
  DatabaseStore Db;
  Db.append("x", {1.0f, 2.0f});
  Db.append("x", 3.0f);
  ASSERT_EQ(Db.get("x").size(), 3u);
  EXPECT_FLOAT_EQ(Db.get("x")[2], 3.0f);
}

TEST(DatabaseStoreTest, UnmappedNameIsBottom) {
  DatabaseStore Db;
  EXPECT_TRUE(Db.get("nothing").empty());
  EXPECT_FALSE(Db.contains("nothing"));
}

TEST(DatabaseStoreTest, ResetMapsToBottom) {
  DatabaseStore Db;
  Db.append("x", 1.0f);
  Db.reset("x");
  EXPECT_FALSE(Db.contains("x"));
  EXPECT_TRUE(Db.get("x").empty());
}

TEST(DatabaseStoreTest, SerializeConcatenatesListsAndNames) {
  DatabaseStore Db;
  Db.append("PX", {1.0f});
  Db.append("PY", {2.0f, 3.0f});
  std::string Name = Db.serialize({"PX", "PY"});
  EXPECT_EQ(Name, "PXPY");
  ASSERT_EQ(Db.get(Name).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(Name)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(Name)[2], 3.0f);
}

TEST(DatabaseStoreTest, LifetimeAppendedSurvivesReset) {
  DatabaseStore Db;
  Db.append("x", {1.0f, 2.0f});
  Db.reset("x");
  Db.append("x", 3.0f);
  EXPECT_EQ(Db.lifetimeAppended(), 3u);
  EXPECT_EQ(Db.totalValues(), 1u);
}

//===----------------------------------------------------------------------===//
// CheckpointManager
//===----------------------------------------------------------------------===//

namespace {
struct ToyState : Checkpointable {
  std::vector<int> Values;
  void saveState(std::vector<uint8_t> &Out) const override {
    Out.assign(reinterpret_cast<const uint8_t *>(Values.data()),
               reinterpret_cast<const uint8_t *>(Values.data()) +
                   Values.size() * sizeof(int));
  }
  void loadState(const std::vector<uint8_t> &In) override {
    Values.assign(reinterpret_cast<const int *>(In.data()),
                  reinterpret_cast<const int *>(In.data() + In.size()));
  }
};
} // namespace

TEST(CheckpointTest, RestoresRegionsObjectsAndDb) {
  CheckpointManager M;
  double Pod = 1.5;
  ToyState Obj;
  Obj.Values = {1, 2, 3};
  M.registerRegion(&Pod, sizeof(Pod));
  M.registerObject(&Obj);
  DatabaseStore Db;
  Db.append("x", 7.0f);
  M.checkpoint(Db);

  Pod = 99.0;
  Obj.Values = {9};
  Db.append("x", 8.0f);
  Db.append("y", 1.0f);
  M.restore(Db);

  EXPECT_DOUBLE_EQ(Pod, 1.5);
  ASSERT_EQ(Obj.Values.size(), 3u);
  EXPECT_EQ(Obj.Values[2], 3);
  EXPECT_EQ(Db.get("x").size(), 1u);
  EXPECT_FALSE(Db.contains("y"));
}

TEST(CheckpointTest, RestoreIsRepeatable) {
  CheckpointManager M;
  int V = 10;
  M.registerRegion(&V, sizeof(V));
  DatabaseStore Db;
  M.checkpoint(Db);
  for (int I = 0; I < 3; ++I) {
    V = 50 + I;
    M.restore(Db);
    EXPECT_EQ(V, 10);
  }
}

TEST(CheckpointTest, SnapshotBytesAccounting) {
  CheckpointManager M;
  double Pod = 0.0;
  M.registerRegion(&Pod, sizeof(Pod));
  DatabaseStore Db;
  Db.append("x", {1.0f, 2.0f});
  M.checkpoint(Db);
  EXPECT_EQ(M.snapshotBytes(), sizeof(double) + 2 * sizeof(float));
}

//===----------------------------------------------------------------------===//
// Models
//===----------------------------------------------------------------------===//

static ModelConfig slConfig(const char *Name) {
  ModelConfig C;
  C.Name = Name;
  C.Algo = Algorithm::AdamOpt;
  C.HiddenLayers = {16};
  C.Seed = 5;
  return C;
}

TEST(SlModelTest, BuildsLazilyAndTrains) {
  SlModel M(slConfig("m"));
  EXPECT_FALSE(M.isBuilt());
  std::vector<WriteBackSpec> Outs = {{"A", 1}, {"B", 1}};
  Rng R(7);
  for (int I = 0; I < 80; ++I) {
    float X = static_cast<float>(R.uniform(-1, 1));
    M.addSample({X, X * X}, {2 * X, -X}, Outs);
  }
  EXPECT_TRUE(M.isBuilt());
  EXPECT_EQ(M.inputSize(), 2);
  EXPECT_EQ(M.numSamples(), 80u);
  M.train(200, 16);
  std::vector<float> P = M.predict({0.5f, 0.25f});
  EXPECT_NEAR(P[0], 1.0f, 0.4f);
  EXPECT_NEAR(P[1], -0.5f, 0.4f);
}

TEST(SlModelTest, SaveLoadRoundTrip) {
  SlModel A(slConfig("m"));
  std::vector<WriteBackSpec> Outs = {{"Y", 1}};
  Rng R(9);
  for (int I = 0; I < 50; ++I) {
    float X = static_cast<float>(R.uniform(0, 1));
    A.addSample({X}, {3 * X}, Outs);
  }
  A.train(40, 8);
  TempPath Path("sl.aumodel");
  ASSERT_TRUE(A.save(Path.str()));

  SlModel B(slConfig("m"));
  ASSERT_TRUE(B.load(Path.str()));
  EXPECT_TRUE(B.isBuilt());
  EXPECT_EQ(B.outputs().size(), 1u);
  EXPECT_EQ(B.outputs().front().Name, "Y");
  EXPECT_FLOAT_EQ(A.predict({0.4f})[0], B.predict({0.4f})[0]);
}

TEST(SlModelTest, LoadRejectsGarbage) {
  TempPath Path("garbage.aumodel");
  std::FILE *F = std::fopen(Path.str().c_str(), "wb");
  std::fputs("not a model", F);
  std::fclose(F);
  SlModel M(slConfig("m"));
  EXPECT_FALSE(M.load(Path.str()));
}

/// One RL au_NN step of a one-actor model (K = 1 of RlModel::stepActors);
/// returns the chosen action.
static int stepOne(RlModel &M, const std::vector<float> &State, float Reward,
                   bool Terminal, const WriteBackSpec &Out, bool Learning) {
  uint8_t Term = Terminal ? 1 : 0;
  int Action = -1;
  M.stepActors(State.data(), 1, static_cast<int>(State.size()), &Reward,
               &Term, Out, Learning, &Action);
  return Action;
}

static ModelConfig rlConfig(const char *Name) {
  ModelConfig C;
  C.Name = Name;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  C.Seed = 6;
  return C;
}

TEST(RlModelTest, BuildsOnFirstStepAndActs) {
  RlModel M(rlConfig("q"));
  WriteBackSpec Out{"output", 3};
  int A = stepOne(M, {0.1f, 0.2f}, 0.0f, false, Out, true);
  EXPECT_GE(A, 0);
  EXPECT_LT(A, 3);
  EXPECT_TRUE(M.isBuilt());
  EXPECT_EQ(M.inputSize(), 2);
  EXPECT_EQ(M.outputs().front().Size, 3);
}

TEST(RlModelTest, DeploymentStepsDoNotDisturbChain) {
  RlModel M(rlConfig("q"));
  WriteBackSpec Out{"output", 2};
  stepOne(M, {0.0f}, 0.0f, false, Out, true);
  long StepsBefore = 0;
  // Several deployment (Learning=false) steps must not feed the learner.
  stepOne(M, {0.3f}, 0.0f, false, Out, false);
  stepOne(M, {0.6f}, 0.0f, false, Out, false);
  StepsBefore = M.learner()->stepsObserved();
  // The next learning step observes exactly one more transition.
  stepOne(M, {1.0f}, 1.0f, false, Out, true);
  EXPECT_EQ(M.learner()->stepsObserved(), StepsBefore + 1);
}

TEST(RlModelTest, SaveLoadRoundTrip) {
  RlModel A(rlConfig("q"));
  WriteBackSpec Out{"output", 4};
  Rng R(11);
  for (int I = 0; I < 30; ++I)
    stepOne(A, {static_cast<float>(R.uniform())}, 0.1f, false, Out, true);
  TempPath Path("rl.aumodel");
  ASSERT_TRUE(A.save(Path.str()));

  RlModel B(rlConfig("q"));
  ASSERT_TRUE(B.load(Path.str()));
  std::vector<float> QA = A.qValues({0.5f});
  std::vector<float> QB = B.qValues({0.5f});
  ASSERT_EQ(QA.size(), QB.size());
  for (size_t I = 0; I != QA.size(); ++I)
    EXPECT_FLOAT_EQ(QA[I], QB[I]);
}

//===----------------------------------------------------------------------===//
// Session primitives
//===----------------------------------------------------------------------===//

TEST(SessionTest, ExtractAppendsAndCounts) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  float Vals[3] = {1, 2, 3};
  S.extract("X", 3, Vals);
  S.extract("X", 1.5f);
  EXPECT_EQ(S.db().get("X").size(), 4u);
  EXPECT_EQ(S.stats().NumExtract, 2u);
  EXPECT_EQ(S.stats().FloatsExtracted, 4u);
  EXPECT_EQ(S.stats().traceBytes(), 4 * sizeof(float));
}

TEST(SessionTest, ExtractDoubleConverts) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  double Vals[2] = {1.25, -2.5};
  S.extract("D", 2, Vals);
  EXPECT_FLOAT_EQ(S.db().get("D")[1], -2.5f);
}

TEST(SessionTest, ConfigIsIdempotent) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "m";
  C.HiddenLayers = {4};
  Model *A = S.config(C);
  Model *B = S.config(C);
  EXPECT_EQ(A, B);
  EXPECT_EQ(S.stats().NumConfig, 2u);
}

TEST(SessionTest, SupervisedTrainPredictCycle) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "lin";
  C.HiddenLayers = {16};
  C.Seed = 21;
  S.config(C);

  Rng R(22);
  for (int I = 0; I < 120; ++I) {
    float X = static_cast<float>(R.uniform(-1, 1));
    S.extract("F", X);
    S.nn("lin", "F", {{"OUT", 1}});
    // In TR mode the program variable holds the desirable value.
    float Desired = 4 * X + 1;
    S.writeBack("OUT", 1, &Desired);
    // au_NN resets the extraction list each iteration.
    EXPECT_TRUE(S.db().get("F").empty());
  }
  S.trainSupervised("lin", 60, 16);
  S.switchMode(Mode::TS);

  float X = 0.5f;
  S.extract("F", X);
  S.nn("lin", "F", {{"OUT", 1}});
  float Pred = 0.0f;
  S.writeBack("OUT", 1, &Pred);
  EXPECT_NEAR(Pred, 3.0f, 0.6f);
}

TEST(SessionTest, MultiOutputLabelsAssembleInDeclaredOrder) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "multi";
  C.HiddenLayers = {8};
  S.config(C);
  for (int I = 0; I < 40; ++I) {
    float X = static_cast<float>(I) / 40.0f;
    S.extract("F", X);
    S.nn("multi", "F", {{"A", 1}, {"B", 1}});
    // Write back in the opposite order to the declaration.
    float BV = -X;
    S.writeBack("B", 1, &BV);
    float AV = X;
    S.writeBack("A", 1, &AV);
  }
  auto *M = static_cast<SlModel *>(S.getModel("multi"));
  ASSERT_TRUE(M);
  EXPECT_EQ(M->numSamples(), 40u);
  S.trainSupervised("multi", 50, 8);
  S.switchMode(Mode::TS);
  S.extract("F", 0.5f);
  S.nn("multi", "F", {{"A", 1}, {"B", 1}});
  float AV = 0, BV = 0;
  S.writeBack("A", 1, &AV);
  S.writeBack("B", 1, &BV);
  EXPECT_GT(AV, 0.0f);
  EXPECT_LT(BV, 0.0f);
}

TEST(SessionTest, SerializeReturnsCombinedName) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  S.extract("PX", 1.0f);
  S.extract("PY", 2.0f);
  std::string Name = S.serialize({"PX", "PY"});
  EXPECT_EQ(Name, "PXPY");
  EXPECT_EQ(S.db().get(Name).size(), 2u);
}

TEST(SessionTest, RlNnStepsAndWritesAction) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "agent";
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  S.config(C);
  for (int I = 0; I < 10; ++I) {
    S.extract("S", static_cast<float>(I) / 10.0f);
    S.nn("agent", "S", /*Reward=*/0.5f, /*Terminal=*/false,
          {"output", 4});
    int Action = -1;
    S.writeBack("output", 4, &Action);
    EXPECT_GE(Action, 0);
    EXPECT_LT(Action, 4);
  }
  Model *M = S.getModel("agent");
  ASSERT_TRUE(M);
  EXPECT_TRUE(RlModel::classof(M));
  EXPECT_TRUE(M->isBuilt());
}

TEST(SessionTest, CheckpointRestoreExcludesModels) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "agent";
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  S.config(C);

  double GameState = 1.0;
  S.checkpoints().registerRegion(&GameState, sizeof(GameState));
  S.extract("S", 0.1f);
  S.checkpoint();

  // Mutate program state, pi, and train the model.
  GameState = 42.0;
  S.extract("S", 0.2f);
  for (int I = 0; I < 20; ++I) {
    S.extract("T", static_cast<float>(I));
    S.nn("agent", "T", 1.0f, false, {"output", 2});
  }
  auto *M = static_cast<RlModel *>(S.getModel("agent"));
  long Steps = M->learner()->stepsObserved();

  S.restore();
  // sigma and pi roll back...
  EXPECT_DOUBLE_EQ(GameState, 1.0);
  EXPECT_EQ(S.db().get("S").size(), 1u);
  // ...but the model keeps its accumulated learning.
  EXPECT_EQ(M->learner()->stepsObserved(), Steps);
}

TEST(SessionTest, TsModeLoadsSavedModel) {
  TempPath Dir("models", /*MakeDir=*/true);
  {
    Engine Eng(Dir.str());
    Session S(Eng, Mode::TR);
    ModelConfig C;
    C.Name = "persisted";
    C.HiddenLayers = {8};
    C.Seed = 77;
    S.config(C);
    Rng R(78);
    for (int I = 0; I < 60; ++I) {
      float X = static_cast<float>(R.uniform(0, 1));
      S.extract("F", X);
      S.nn("persisted", "F", {{"Y", 1}});
      float Label = 2 * X;
      S.writeBack("Y", 1, &Label);
    }
    S.trainSupervised("persisted", 40, 16);
    ASSERT_TRUE(S.saveModel("persisted"));
  }
  {
    Engine Eng(Dir.str());
    Session S(Eng, Mode::TS);
    ModelConfig C;
    C.Name = "persisted";
    S.config(C); // CONFIG-TEST loads from disk.
    S.extract("F", 0.5f);
    S.nn("persisted", "F", {{"Y", 1}});
    float Pred = 0.0f;
    S.writeBack("Y", 1, &Pred);
    EXPECT_NEAR(Pred, 1.0f, 0.5f);
  }
}

TEST(SessionTest, ModelPathComposition) {
  Engine EngA("/models");
  Session A(EngA, Mode::TR);
  EXPECT_EQ(A.modelPath("m"), "/models/m.aumodel");
  Engine EngB;
  Session B(EngB, Mode::TR);
  EXPECT_EQ(B.modelPath("m"), "m.aumodel");
}

TEST(SessionTest, StatsCountPrimitives) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "m";
  C.HiddenLayers = {4};
  S.config(C);
  S.extract("X", 1.0f);
  S.serialize({"X"});
  S.nn("m", "X", {{"Y", 1}});
  float V = 1.0f;
  S.writeBack("Y", 1, &V);
  S.checkpoint();
  S.restore();
  const SessionStats &St = S.stats();
  EXPECT_EQ(St.NumConfig, 1u);
  EXPECT_EQ(St.NumExtract, 1u);
  EXPECT_EQ(St.NumSerialize, 1u);
  EXPECT_EQ(St.NumNn, 1u);
  EXPECT_EQ(St.NumWriteBack, 1u);
  EXPECT_EQ(St.NumCheckpoint, 1u);
  EXPECT_EQ(St.NumRestore, 1u);
}

//===----------------------------------------------------------------------===//
// Handle-keyed hot path (DESIGN.md §7)
//===----------------------------------------------------------------------===//

TEST(NameTableTest, InternIsIdempotentAndDense) {
  NameTable T;
  NameId A = T.intern("alpha");
  NameId B = T.intern("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(T.intern("alpha"), A);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.name(A), "alpha");
  EXPECT_EQ(T.find("beta"), B);
  EXPECT_EQ(T.find("gamma"), InvalidNameId);
}

TEST(NameTableTest, NameReferencesStayStableAcrossGrowth) {
  NameTable T;
  const std::string &First = T.name(T.intern("first"));
  for (int I = 0; I < 1000; ++I)
    T.intern("n" + std::to_string(I));
  EXPECT_EQ(First, "first"); // No reallocation moved the string out.
  EXPECT_EQ(T.find("first"), 0u);
}

TEST(DatabaseStoreTest, RvalueAppendAdoptsBuffer) {
  DatabaseStore Db;
  std::vector<float> V = {1.0f, 2.0f, 3.0f};
  const float *Buf = V.data();
  Db.append("x", std::move(V));
  ASSERT_EQ(Db.get("x").size(), 3u);
  EXPECT_EQ(Db.get("x").data(), Buf); // Adopted, not copied.
  // Appending to an already-mapped slot concatenates as usual.
  Db.append("x", std::vector<float>{4.0f});
  ASSERT_EQ(Db.get("x").size(), 4u);
  EXPECT_FLOAT_EQ(Db.get("x")[3], 4.0f);
  EXPECT_EQ(Db.lifetimeAppended(), 4u);
}

TEST(DatabaseStoreTest, ClearDropsEntriesKeepsNamesAndLifetime) {
  DatabaseStore Db;
  NameId X = Db.intern("x");
  Db.append(X, 1.0f);
  Db.append("y", {2.0f, 3.0f});
  Db.clear();
  EXPECT_EQ(Db.numEntries(), 0u);
  EXPECT_EQ(Db.totalValues(), 0u);
  EXPECT_FALSE(Db.contains(X));
  // Names and ids survive; the lifetime counter survives (Table 2).
  EXPECT_EQ(Db.intern("x"), X);
  EXPECT_EQ(Db.lifetimeAppended(), 3u);
  Db.append(X, 5.0f);
  EXPECT_EQ(Db.lifetimeAppended(), 4u);
}

TEST(DatabaseStoreTest, HandleSerializeIsLazyUntilRead) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B");
  const float AVals[] = {1.0f, 2.0f};
  Db.append(A, AVals, 2);
  Db.append(B, 3.0f);
  NameId C = Db.serialize({A, B});
  EXPECT_EQ(Db.nameOf(C), "AB");
  // view() exposes spans over the source buffers — zero copies.
  SerializedView V = Db.view(C);
  EXPECT_EQ(V.size(), 3u);
  ASSERT_EQ(V.numSpans(), 2u);
  EXPECT_EQ(V.spanData(0), Db.get(A).data());
  EXPECT_EQ(V.spanData(1), Db.get(B).data());
  float Gathered[3];
  V.copyTo(Gathered);
  EXPECT_FLOAT_EQ(Gathered[2], 3.0f);
  // get() materializes to the same values.
  ASSERT_EQ(Db.get(C).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(C)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[2], 3.0f);
}

TEST(DatabaseStoreTest, ConsumingSerializeMapsSourcesToBottom) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B");
  const float AVals[] = {1.0f, 2.0f};
  Db.append(A, AVals, 2);
  Db.append(B, 3.0f);
  NameId C = Db.serialize({A, B}, /*Consume=*/true);
  EXPECT_FALSE(Db.contains(A));
  EXPECT_FALSE(Db.contains(B));
  // The consumed sources' bytes stay readable through the spans.
  ASSERT_EQ(Db.get(C).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(C)[1], 2.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[2], 3.0f);
}

TEST(DatabaseStoreTest, SerializeDuplicateSourceCountsTwice) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B");
  const float AVals[] = {1.0f, 2.0f};
  Db.append(A, AVals, 2);
  Db.append(B, 3.0f);
  // {A, B, A}: A's list appears twice, even when the walk consumes A at
  // its first occurrence.
  NameId C = Db.serialize({A, B, A}, /*Consume=*/true);
  EXPECT_EQ(Db.nameOf(C), "ABA");
  ASSERT_EQ(Db.get(C).size(), 5u);
  EXPECT_FLOAT_EQ(Db.get(C)[3], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[4], 2.0f);
}

TEST(DatabaseStoreTest, SerializeCombinedNameAmongSources) {
  DatabaseStore Db;
  // strcat("X", "") == "X": the combined entry is one of its own sources.
  NameId X = Db.intern("X"), E = Db.intern("");
  const float XVals[] = {1.0f, 2.0f};
  Db.append(X, XVals, 2);
  Db.append(E, 3.0f);
  NameId C = Db.serialize({X, E});
  EXPECT_EQ(C, X);
  ASSERT_EQ(Db.get(C).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(C)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[2], 3.0f);
  // Serialize the (now lazy) entry with itself again: flattens its own
  // recorded spans rather than reading the list being rewritten.
  NameId C2 = Db.serialize({X, E});
  EXPECT_EQ(C2, X);
  ASSERT_EQ(Db.get(C2).size(), 4u);
  EXPECT_FLOAT_EQ(Db.get(C2)[2], 3.0f);
  EXPECT_FLOAT_EQ(Db.get(C2)[3], 3.0f);
}

TEST(DatabaseStoreTest, NestedSerializeFlattensToConcreteSpans) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B"), C = Db.intern("C");
  Db.append(A, 1.0f);
  Db.append(B, 2.0f);
  Db.append(C, 3.0f);
  NameId AB = Db.serialize({A, B});
  NameId ABC = Db.serialize({AB, C});
  EXPECT_EQ(Db.nameOf(ABC), "ABC");
  // The outer entry's spans reference A and B directly, not the lazy AB.
  SerializedView V = Db.view(ABC);
  ASSERT_EQ(V.numSpans(), 3u);
  EXPECT_EQ(V.spanData(0), Db.get(A).data());
  ASSERT_EQ(Db.get(ABC).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(ABC)[2], 3.0f);
}

TEST(SessionTest, StringAndHandleTracesAreEquivalent) {
  // The same RL deployment loop driven once through the string API and
  // once through interned handles must be observationally identical: same
  // actions, same pi contents, same primitive counts.
  auto Configure = [](Session &Sn) {
    ModelConfig C;
    C.Name = "agent";
    C.Algo = Algorithm::QLearn;
    C.HiddenLayers = {8};
    C.Seed = 11;
    Sn.config(C);
  };
  Engine EngS, EngH;
  Session S(EngS, Mode::TR), H(EngH, Mode::TR);
  Configure(S);
  Configure(H);
  NameId PX = H.intern("PX"), PY = H.intern("PY");
  NameId Agent = H.intern("agent"), Out = H.intern("output");

  for (int I = 0; I < 50; ++I) {
    float X = static_cast<float>(I) * 0.02f;
    float Y = 1.0f - X;
    bool Term = I % 17 == 16;

    S.extract("PX", X);
    S.extract("PY", Y);
    S.nn("agent", S.serialize({"PX", "PY"}), 0.25f, Term, {"output", 3});
    int ActionS = -1;
    S.writeBack("output", 3, &ActionS);

    H.extract(PX, X);
    H.extract(PY, Y);
    H.nn(Agent, H.serialize({PX, PY}), 0.25f, Term, {Out, 3});
    int ActionH = -1;
    H.writeBack(Out, 3, &ActionH);

    EXPECT_EQ(ActionS, ActionH) << "diverged at step " << I;
    EXPECT_TRUE(H.db().get(PX).empty()); // Consumed by serialize.
  }
  EXPECT_EQ(S.stats().NumExtract, H.stats().NumExtract);
  EXPECT_EQ(S.stats().FloatsExtracted, H.stats().FloatsExtracted);
  EXPECT_EQ(S.stats().NumSerialize, H.stats().NumSerialize);
  EXPECT_EQ(S.stats().NumNn, H.stats().NumNn);
  EXPECT_EQ(S.stats().NumWriteBack, H.stats().NumWriteBack);
  EXPECT_EQ(S.db().numEntries(), H.db().numEntries());
  EXPECT_EQ(S.db().totalValues(), H.db().totalValues());
  EXPECT_EQ(S.db().lifetimeAppended(), H.db().lifetimeAppended());
}

TEST(CheckpointTest, DirtyTrackingStressBitIdentical) {
  // Many regions, objects and pi slots; repeated mutate/restore rounds with
  // different dirty subsets each round must restore bit-identically while
  // re-copying only the dirty slice at each checkpoint.
  Engine Eng;
  Session S(Eng, Mode::TR);
  CheckpointManager &M = S.checkpoints();
  DatabaseStore &Db = S.db();

  constexpr int NumRegions = 16, NumSlots = 64;
  std::vector<double> Pods(NumRegions);
  std::vector<ToyState> Objs(4);
  for (int I = 0; I < NumRegions; ++I) {
    Pods[I] = I * 1.25;
    M.registerRegion(&Pods[I], sizeof(double));
  }
  for (int I = 0; I < 4; ++I) {
    Objs[I].Values = {I, I + 1, I + 2};
    M.registerObject(&Objs[I]);
  }
  std::vector<NameId> Slots;
  for (int I = 0; I < NumSlots; ++I) {
    NameId Id = Db.intern("slot" + std::to_string(I));
    const float Init[] = {static_cast<float>(I), static_cast<float>(2 * I)};
    Db.append(Id, Init, 2);
    Slots.push_back(Id);
  }

  S.checkpoint();
  size_t FullCopies = M.lastCheckpointCopies();
  EXPECT_GE(FullCopies, static_cast<size_t>(NumRegions + NumSlots));

  // Shadow baseline: what the latest checkpoint holds (re-checkpointing
  // after a mutation makes that mutation the new baseline).
  std::vector<double> BasePods = Pods;
  std::vector<std::vector<int>> BaseObjs;
  for (const ToyState &O : Objs)
    BaseObjs.push_back(O.Values);
  std::vector<std::vector<float>> BaseSlots;
  for (NameId Id : Slots)
    BaseSlots.push_back(Db.get(Id));

  Rng R(99);
  for (int Round = 0; Round < 8; ++Round) {
    // Dirty a different, small subset each round.
    for (int K = 0; K < 5; ++K) {
      int I = static_cast<int>(R.uniform(0, NumSlots - 1));
      Db.append(Slots[I], static_cast<float>(Round));
    }
    Pods[Round % NumRegions] = -1.0 - Round;
    Objs[Round % 4].Values.push_back(Round);

    if (Round % 2 == 1) {
      // Re-checkpoint: only the dirty slice re-copies (O(delta)), and the
      // mutations above become the new baseline.
      S.checkpoint();
      EXPECT_LT(M.lastCheckpointCopies(), FullCopies / 2)
          << "round " << Round;
      BasePods = Pods;
      for (int I = 0; I < 4; ++I)
        BaseObjs[I] = Objs[I].Values;
      for (int I = 0; I < NumSlots; ++I)
        BaseSlots[I] = Db.get(Slots[I]);
      // Dirty a little more so the restore below has work to do.
      Db.append(Slots[Round % NumSlots], -7.0f);
    }

    // Restore must rewind to the latest baseline, bit for bit, repeatedly.
    S.restore();
    for (int I = 0; I < NumRegions; ++I)
      ASSERT_DOUBLE_EQ(Pods[I], BasePods[I]) << "round " << Round;
    for (int I = 0; I < 4; ++I)
      ASSERT_EQ(Objs[I].Values, BaseObjs[I]) << "round " << Round;
    for (int I = 0; I < NumSlots; ++I)
      ASSERT_EQ(Db.get(Slots[I]), BaseSlots[I])
          << "round " << Round << " slot " << I;
  }
}

TEST(CheckpointTest, SlotsInternedAfterSnapshotRollBackToBottom) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  S.extract("old", 1.0f);
  S.checkpoint();
  NameId Fresh = S.intern("fresh");
  S.extract(Fresh, 2.0f);
  S.restore();
  EXPECT_FALSE(S.db().contains(Fresh));
  EXPECT_EQ(S.db().get("old").size(), 1u);
  // And the store keeps working for the rolled-back slot.
  S.extract(Fresh, 3.0f);
  ASSERT_EQ(S.db().get(Fresh).size(), 1u);
  EXPECT_FLOAT_EQ(S.db().get(Fresh)[0], 3.0f);
}
