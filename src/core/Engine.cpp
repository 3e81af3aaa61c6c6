//===- core/Engine.cpp - Process-wide model plane (theta) -----------------===//

#include "core/Engine.h"

#include "support/ThreadPool.h"

#include <cassert>

using namespace au;

Engine::Engine(std::string Dir) : ModelDir(std::move(Dir)) {}

Engine::~Engine() = default;

//===----------------------------------------------------------------------===//
// Master name table
//===----------------------------------------------------------------------===//

NameId Engine::intern(std::string_view Name) {
  std::lock_guard<std::mutex> L(NamesM);
  return MasterNames.intern(Name);
}

size_t Engine::numNames() const {
  std::lock_guard<std::mutex> L(NamesM);
  return MasterNames.size();
}

const std::string &Engine::nameOf(NameId Id) const {
  // The deque-backed table never moves its strings, so the reference stays
  // valid after the lock drops.
  std::lock_guard<std::mutex> L(NamesM);
  return MasterNames.name(Id);
}

size_t Engine::appendNamesTo(DatabaseStore &Db, size_t From) const {
  std::lock_guard<std::mutex> L(NamesM);
  size_t N = MasterNames.size();
  for (size_t I = From; I != N; ++I) {
    NameId Id = Db.intern(MasterNames.name(static_cast<NameId>(I)));
    // Belt and braces under the size check the session already did: a
    // replayed name must land at its master position.
    if (Id != static_cast<NameId>(I))
      throw StoreDivergenceError(
          "session store diverged from the engine name table: replayed "
          "name '" + MasterNames.name(static_cast<NameId>(I)) +
          "' did not land at its master position");
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Model store theta
//===----------------------------------------------------------------------===//

Model *Engine::config(const ModelConfig &C, Mode M) {
  std::lock_guard<std::mutex> L(ModelsM);
  // Rules CONFIG-TRAIN / CONFIG-TEST: only act when theta(name) is bottom.
  auto It = Models.find(C.Name);
  if (It != Models.end())
    return It->second->M.get();

  auto E = std::make_unique<EngineModelEntry>();
  if (C.Algo == Algorithm::QLearn)
    E->M = std::make_unique<RlModel>(C);
  else
    E->M = std::make_unique<SlModel>(C);

  bool Loaded = false;
  if (M == Mode::TS) {
    // CONFIG-TEST: load the trained model saved by a prior TR execution.
    Loaded = E->M->load(modelPath(C.Name));
    assert(Loaded && "TS-mode au_config could not load the trained model");
  }

  // Register the handle route: model names live in the same table as
  // database names, so entryById / Session::nn(NameId, ...) index theta
  // directly. ModelsM -> NamesM is the documented lock order.
  NameId Id = intern(C.Name);
  if (Id >= EntryById.size())
    EntryById.resize(Id + 1, nullptr);
  EngineModelEntry *EP = E.get();
  EntryById[Id] = EP;
  Models.emplace(C.Name, std::move(E));

  if (Loaded)
    publish(EP); // Readers can serve the loaded parameters immediately.
  return EP->M.get();
}

Model *Engine::getModel(const std::string &Name) {
  std::lock_guard<std::mutex> L(ModelsM);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : It->second->M.get();
}

Model *Engine::getModel(NameId Id) {
  std::lock_guard<std::mutex> L(ModelsM);
  return Id < EntryById.size() && EntryById[Id] ? EntryById[Id]->M.get()
                                                : nullptr;
}

double Engine::trainSupervised(const std::string &ModelName, int Epochs,
                               int BatchSize) {
  Model *M = getModel(ModelName);
  assert(M && SlModel::classof(M) && "trainSupervised on a non-SL model");
  double Loss = static_cast<SlModel *>(M)->train(Epochs, BatchSize);
  publishModel(ModelName);
  return Loss;
}

std::string Engine::modelPath(const std::string &ModelName) const {
  if (ModelDir.empty())
    return ModelName + ".aumodel";
  return ModelDir + "/" + ModelName + ".aumodel";
}

bool Engine::saveModel(const std::string &ModelName) {
  Model *M = getModel(ModelName);
  if (!M)
    return false;
  return M->save(modelPath(ModelName));
}

bool Engine::saveAllModels() {
  std::lock_guard<std::mutex> L(ModelsM);
  bool Ok = true;
  for (auto &[Name, E] : Models)
    Ok = E->M->save(modelPath(Name)) && Ok;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Parameter-snapshot publication
//===----------------------------------------------------------------------===//

uint64_t Engine::publish(EngineModelEntry *E) {
  if (!E || !E->M)
    return 0;
  std::unique_ptr<ModelSnapshot> S = E->M->snapshot();
  if (!S)
    return 0;
  std::lock_guard<std::mutex> L(E->SnapM);
  uint64_t V = E->Version.load(std::memory_order_relaxed) + 1;
  S->Version = V;
  E->Snap = std::move(S);
  // Release: a reader that acquire-loads V sees the fully built snapshot.
  E->Version.store(V, std::memory_order_release);
  return V;
}

bool EngineModelEntry::refresh(std::shared_ptr<const ModelSnapshot> &Held) {
  // Steady state: one acquire-load, no locks.
  uint64_t V = Version.load(std::memory_order_acquire);
  if (V == 0)
    return false;
  if (Held && Held->Version == V)
    return true;
  std::lock_guard<std::mutex> L(SnapM);
  Held = Snap;
  return Held != nullptr;
}

uint64_t Engine::publishModel(const std::string &ModelName) {
  return publish(entryByName(ModelName));
}

uint64_t Engine::publishModel(NameId Id) { return publish(entryById(Id)); }

uint64_t Engine::modelVersion(NameId Id) {
  EngineModelEntry *E = entryById(Id);
  return E ? E->Version.load(std::memory_order_acquire) : 0;
}

EngineModelEntry *Engine::entryById(NameId Id) {
  std::lock_guard<std::mutex> L(ModelsM);
  return Id < EntryById.size() ? EntryById[Id] : nullptr;
}

EngineModelEntry *Engine::entryByName(const std::string &Name) {
  std::lock_guard<std::mutex> L(ModelsM);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : It->second.get();
}

//===----------------------------------------------------------------------===//
// Cross-session inference batchers
//===----------------------------------------------------------------------===//

void Engine::nnBatchSessions(NameId ModelId, Session *const *Sessions,
                             const NameId *ExtIds, int K,
                             const std::vector<WriteBackHandle> &Outputs) {
  assert(K > 0 && Sessions && ExtIds && "nnBatchSessions of no sessions");
  std::lock_guard<std::mutex> BL(BatchM);
  EngineModelEntry *Entry = entryById(ModelId);
  assert(Entry && Entry->M && "au_NN on an unconfigured model");
  auto *Sl = static_cast<SlModel *>(Entry->M.get());
  assert(SlModel::classof(Sl) && "supervised au_NN form on an RL model");
  assert(!Outputs.empty() && "au_NN must declare at least one output");

  // Gather session k's serialized features into row k of one K x D staging
  // block. Rows are disjoint and each chunk touches only its own session
  // store, so the gather parallelizes without changing any result.
  size_t D = Sessions[0]->Db.view(ExtIds[0]).size();
  assert(D > 0 && "au_NN with an empty feature list");
  NnStaging.resize(static_cast<size_t>(K) * D);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          SerializedView V = Sessions[S]->Db.view(ExtIds[S]);
          assert(V.size() == D && "session feature sizes diverged");
          V.copyTo(NnStaging.data() + S * D);
        }
      });

  // ONE forward for the whole tenant set — this is where K per-call
  // predictions collapse into a single batched network pass. Serve from
  // the latest published snapshot when one exists; fall back to the live
  // model otherwise (single-tenant semantics).
  std::shared_ptr<const ModelSnapshot> Snap;
  if (Entry->refresh(Snap))
    nn::predictRows(Snap->Net, Snap->Norm, NnStaging.data(), K, NnOut);
  else
    Sl->predictRows(NnStaging.data(), K, NnOut);

  // Scatter each session's predictions into its own store and reset its
  // feature list (Rules TRAIN/TEST reset extName), again disjoint per
  // session. au_NN counts once per session, in the session's own stats.
  const size_t NY = NnOut.size() / static_cast<size_t>(K);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          Session &Sess = *Sessions[S];
          ++Sess.Stats.NumNn;
          size_t Offset = 0;
          for (const WriteBackHandle &O : Outputs) {
            Sess.setWbOwner(O.Name, ModelId);
            assert(Offset + O.Size <= NY && "declared outputs exceed model");
            Sess.Db.set(O.Name, NnOut.data() + S * NY + Offset, O.Size);
            Offset += O.Size;
          }
          Sess.Db.reset(ExtIds[S]);
        }
      });
}

void Engine::nnRlSessions(NameId ModelId, Session *const *Sessions,
                          const NameId *ExtIds, const float *Rewards,
                          const uint8_t *Terminals, int K,
                          const WriteBackHandle &Output, bool Learning) {
  assert(K > 0 && Sessions && ExtIds && "nnRlSessions of no sessions");
  std::lock_guard<std::mutex> BL(BatchM);
  Model *M = getModel(ModelId);
  assert(M && "au_NN on an unconfigured model");
  assert(RlModel::classof(M) && "RL au_NN form on a supervised model");
  auto *Rl = static_cast<RlModel *>(M);

  size_t D = Sessions[0]->Db.view(ExtIds[0]).size();
  assert(D > 0 && "au_NN with an empty state list");
  NnStaging.resize(static_cast<size_t>(K) * D);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          SerializedView V = Sessions[S]->Db.view(ExtIds[S]);
          assert(V.size() == D && "session state sizes diverged");
          V.copyTo(NnStaging.data() + S * D);
        }
      });

  // One fused model step for the whole fleet (observe, train when due,
  // batched action selection). The output's string spec is only needed on
  // the cold build path.
  ActionsScratch.resize(static_cast<size_t>(K));
  WriteBackSpec Spec{std::string(), Output.Size};
  if (!M->isBuilt())
    Spec.Name = nameOf(Output.Name);
  Rl->stepActors(NnStaging.data(), K, static_cast<int>(D), Rewards, Terminals,
                 Spec, Learning, ActionsScratch.data());

  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          Session &Sess = *Sessions[S];
          ++Sess.Stats.NumNn;
          Sess.setWbOwner(Output.Name, ModelId);
          float ActionF = static_cast<float>(ActionsScratch[S]);
          Sess.Db.set(Output.Name, &ActionF, 1);
          Sess.Db.reset(ExtIds[S]);
        }
      });
}
