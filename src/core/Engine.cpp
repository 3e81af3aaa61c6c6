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
// au_NN: one body per form, for K sessions
//===----------------------------------------------------------------------===//

/// Gathers session k's serialized list pi_k[ExtIds[k]] into row k of \p In
/// (K x D, row-major) and returns D. Rows are disjoint and each chunk
/// touches only its own session's store, so the gather parallelizes
/// without changing any result; at K = 1 it runs inline.
static size_t gatherRows(Session *const *Sessions, const NameId *ExtIds,
                         int K, std::vector<float> &In) {
  assert(K > 0 && Sessions && ExtIds && "au_NN of no sessions");
  size_t D = Sessions[0]->db().view(ExtIds[0]).size();
  assert(D > 0 && "au_NN with an empty input list");
  In.resize(static_cast<size_t>(K) * D);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          SerializedView V = Sessions[S]->db().view(ExtIds[S]);
          assert(V.size() == D && "session input sizes diverged");
          V.copyTo(In.data() + S * D);
        }
      });
  return D;
}

void Engine::serveSl(EngineModelEntry *Entry,
                     std::shared_ptr<const ModelSnapshot> &Snap,
                     NameId ModelId, Session *const *Sessions,
                     const NameId *ExtIds, int K,
                     const std::vector<WriteBackHandle> &Outputs,
                     NnStaging &St) {
  assert(Entry && Entry->M && "au_NN on an unconfigured model");
  assert(SlModel::classof(Entry->M.get()) &&
         "supervised au_NN form on an RL model");
  assert(!Outputs.empty() && "au_NN must declare at least one output");
  gatherRows(Sessions, ExtIds, K, St.In);

  // ONE forward for all K rows, on the latest published snapshot; the live
  // model serves only while nothing is published.
  if (Entry->refresh(Snap))
    nn::predictRows(Snap->Net, Snap->Norm, St.In.data(), K, St.Out);
  else
    static_cast<SlModel *>(Entry->M.get())
        ->predictRows(St.In.data(), K, St.Out);

  // Scatter each session's predictions into its own store and reset its
  // input list (Rules TRAIN/TEST reset extName), again disjoint per
  // session. au_NN counts once per session, in the session's own stats.
  const size_t NY = St.Out.size() / static_cast<size_t>(K);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          Session &Sess = *Sessions[S];
          ++Sess.Stats.NumNn;
          size_t Offset = 0;
          for (const WriteBackHandle &O : Outputs) {
            Sess.setWbOwner(O.Name, ModelId);
            assert(Offset + O.Size <= NY && "declared outputs exceed model");
            Sess.Db.set(O.Name, St.Out.data() + S * NY + Offset, O.Size);
            Offset += O.Size;
          }
          Sess.Db.reset(ExtIds[S]);
        }
      });
}

void Engine::stepRl(Model *M, NameId ModelId, Session *const *Sessions,
                    const NameId *ExtIds, const float *Rewards,
                    const uint8_t *Terminals, int K,
                    const WriteBackHandle &Output, bool Learning,
                    NnStaging &St) {
  assert(M && "au_NN on an unconfigured model");
  assert(RlModel::classof(M) && "RL au_NN form on a supervised model");
  size_t D = gatherRows(Sessions, ExtIds, K, St.In);

  // One model step for all K actors (observe, train when due, batched
  // action selection). The output's string spec is only needed on the
  // cold build path (persistence stores output names).
  St.Actions.resize(static_cast<size_t>(K));
  WriteBackSpec Spec{std::string(), Output.Size};
  if (!M->isBuilt())
    Spec.Name = Sessions[0]->Db.nameOf(Output.Name);
  static_cast<RlModel *>(M)->stepActors(St.In.data(), K, static_cast<int>(D),
                                        Rewards, Terminals, Spec, Learning,
                                        St.Actions.data());

  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), 1, [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          Session &Sess = *Sessions[S];
          ++Sess.Stats.NumNn;
          Sess.setWbOwner(Output.Name, ModelId);
          float ActionF = static_cast<float>(St.Actions[S]);
          Sess.Db.set(Output.Name, &ActionF, 1);
          Sess.Db.reset(ExtIds[S]);
        }
      });
}

//===----------------------------------------------------------------------===//
// Cross-session inference batchers
//===----------------------------------------------------------------------===//

void Engine::nnBatchSessions(NameId ModelId, Session *const *Sessions,
                             const NameId *ExtIds, int K,
                             const std::vector<WriteBackHandle> &Outputs) {
  std::lock_guard<std::mutex> BL(BatchM);
  std::shared_ptr<const ModelSnapshot> Snap;
  serveSl(entryById(ModelId), Snap, ModelId, Sessions, ExtIds, K, Outputs,
          Staging);
}

void Engine::nnRlSessions(NameId ModelId, Session *const *Sessions,
                          const NameId *ExtIds, const float *Rewards,
                          const uint8_t *Terminals, int K,
                          const WriteBackHandle &Output, bool Learning) {
  std::lock_guard<std::mutex> BL(BatchM);
  stepRl(getModel(ModelId), ModelId, Sessions, ExtIds, Rewards, Terminals, K,
         Output, Learning, Staging);
}
