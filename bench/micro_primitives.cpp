//===- bench/micro_primitives.cpp - Primitive overhead microbenchmarks ---===//
//
// Microbenchmarks behind the paper's overhead claims (Section 6.2: SL
// overhead <= 0.64x, RL overhead 0.89x-6.14x, driven by the per-iteration
// cost of au_extract / au_serialize / au_NN / au_write_back and the
// checkpoint/restore latency of Table 2).
//
// Each primitive is measured through both keying APIs — the string API and
// the interned-handle hot path of DESIGN.md §7 — and checkpointing is
// measured with the O(Δ) dirty tracking against the full-copy path. Prints
// one JSON line per case (the same shape as bench/nn_kernels):
//
//   {"bench": "...", "api": "string|handle", "ns_per_iter": ...}
//   {"bench": "...", "speedup_handle_vs_string": ...}
//
// so BENCH_primitives.json baselines can be diffed across PRs.
//
//===----------------------------------------------------------------------===//

#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "core/Engine.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace au;
using namespace au::apps;

namespace {

volatile float Sink; // Defeats dead-code elimination.

/// Times Fn (already warmed) and returns the best (minimum) ns per
/// iteration over several batches. The minimum filters out scheduler and
/// frequency noise, which on a shared single-core box dwarfs the ns-scale
/// primitives being measured.
double timeNs(const std::function<void()> &Fn, int Batches = 7,
              double BatchSeconds = 0.08) {
  // Warm-up: intern names, warm slot capacities, fault in pages, and give
  // the frequency governor time to ramp before the first batch.
  Timer W;
  do {
    Fn();
  } while (W.seconds() < 0.02);
  double Best = 1e300;
  for (int B = 0; B < Batches; ++B) {
    int Iters = 0;
    Timer T;
    do {
      Fn();
      ++Iters;
    } while (Iters < 3 || T.seconds() < BatchSeconds);
    Best = std::min(Best, T.seconds() * 1e9 / Iters);
  }
  return Best;
}

/// Times \p Fn with \p Inner repetitions folded inside one call, so the
/// ns-scale primitives are not swamped by the std::function dispatch.
double timeNsInner(int Inner, const std::function<void()> &Fn) {
  return timeNs(Fn) / Inner;
}

void printCase(const std::string &Bench, const char *Api, double NsPerIter) {
  std::printf("{\"bench\": \"%s\", \"api\": \"%s\", \"ns_per_iter\": %.1f}\n",
              Bench.c_str(), Api, NsPerIter);
  std::fflush(stdout);
}

void printSpeedup(const std::string &Bench, const char *Key, double Slow,
                  double Fast) {
  std::printf("{\"bench\": \"%s\", \"%s\": %.2f}\n", Bench.c_str(), Key,
              Slow / Fast);
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// BM_Extract: au_extract of N floats accumulating a 64-deep trace that is
// then consumed once (the Fig. 8 loop extracts between serialize points),
// string vs handle.
//===----------------------------------------------------------------------===//

void benchExtract(size_t N) {
  const std::string Bench = "BM_Extract(" + std::to_string(N) + ")";
  std::vector<float> Vals(N, 1.0f);

  // N == 1 measures the scalar extract call — the form the annotated game
  // drivers use per feature variable — N > 1 the pointer/size form.
  Engine StrEng;
  Session StrS(StrEng, Mode::TR);
  double Str = timeNsInner(64, [&] {
    for (int R = 0; R < 64; ++R) {
      if (N == 1)
        StrS.extract("playerX", Vals[0]);
      else
        StrS.extract("playerX", Vals.size(), Vals.data());
    }
    StrS.db().reset("playerX"); // Consume the accumulated trace.
  });
  printCase(Bench, "string", Str);

  Engine HdlEng;
  Session HdlS(HdlEng, Mode::TR);
  NameId X = HdlS.intern("playerX");
  double Hdl = timeNsInner(64, [&] {
    for (int R = 0; R < 64; ++R) {
      if (N == 1)
        HdlS.extract(X, Vals[0]);
      else
        HdlS.extract(X, Vals.size(), Vals.data());
    }
    HdlS.db().reset(X);
  });
  printCase(Bench, "handle", Hdl);
  printSpeedup(Bench, "speedup_handle_vs_string", Str, Hdl);
}

//===----------------------------------------------------------------------===//
// BM_Serialize: K scalar extracts + au_serialize + reset, string vs handle.
//===----------------------------------------------------------------------===//

void benchSerialize(int K) {
  const std::string Bench = "BM_Serialize(" + std::to_string(K) + ")";
  std::vector<std::string> Names;
  for (int I = 0; I < K; ++I)
    Names.push_back("feature" + std::to_string(I));

  Engine StrEng;
  Session StrS(StrEng, Mode::TR);
  double Str = timeNsInner(64, [&] {
    for (int R = 0; R < 64; ++R) {
      for (const std::string &Nm : Names)
        StrS.extract(Nm, 1.0f);
      std::string Combined = StrS.serialize(Names);
      StrS.db().reset(Combined);
    }
  });
  printCase(Bench, "string", Str);

  Engine HdlEng;
  Session HdlS(HdlEng, Mode::TR);
  std::vector<NameId> Ids;
  for (const std::string &Nm : Names)
    Ids.push_back(HdlS.intern(Nm));
  double Hdl = timeNsInner(64, [&] {
    for (int R = 0; R < 64; ++R) {
      for (NameId Id : Ids)
        HdlS.extract(Id, 1.0f);
      NameId Combined = HdlS.serialize(Ids);
      HdlS.db().reset(Combined);
    }
  });
  printCase(Bench, "handle", Hdl);
  printSpeedup(Bench, "speedup_handle_vs_string", Str, Hdl);
}

//===----------------------------------------------------------------------===//
// BM_NnPredictDnn: the full TS-mode extract + au_NN + au_write_back body.
//===----------------------------------------------------------------------===//

/// Builds a trained {32,32} DNN over \p N features in \p S and switches it
/// to TS mode.
void trainTinyDnn(Session &S, size_t N) {
  ModelConfig C;
  C.Name = "m";
  C.HiddenLayers = {32, 32};
  S.config(C);
  std::vector<float> Vals(N, 0.5f);
  S.extract("F", Vals.size(), Vals.data());
  S.nn("m", "F", {{"Y", 1}});
  float L = 0.5f;
  S.writeBack("Y", 1, &L);
  static_cast<SlModel *>(S.getModel("m"))->train(1, 1);
  S.switchMode(Mode::TS);
}

void benchNnPredict(size_t N) {
  const std::string Bench = "BM_NnPredictDnn(" + std::to_string(N) + ")";
  std::vector<float> Vals(N, 0.5f);

  Engine StrEng;
  Session StrS(StrEng, Mode::TR);
  trainTinyDnn(StrS, N);
  double Str = timeNs([&] {
    StrS.extract("F", Vals.size(), Vals.data());
    StrS.nn("m", "F", {{"Y", 1}});
    float Out = 0.0f;
    StrS.writeBack("Y", 1, &Out);
    Sink = Out;
  });
  printCase(Bench, "string", Str);

  Engine HdlEng;
  Session HdlS(HdlEng, Mode::TR);
  trainTinyDnn(HdlS, N);
  NameId M = HdlS.intern("m"), F = HdlS.intern("F");
  WriteBackHandle Y{HdlS.intern("Y"), 1};
  double Hdl = timeNs([&] {
    HdlS.extract(F, Vals.size(), Vals.data());
    HdlS.nn(M, F, {Y});
    float Out = 0.0f;
    HdlS.writeBack(Y.Name, 1, &Out);
    Sink = Out;
  });
  printCase(Bench, "handle", Hdl);
  printSpeedup(Bench, "speedup_handle_vs_string", Str, Hdl);
}

//===----------------------------------------------------------------------===//
// BM_Checkpoint: Mario-sized program state, small dirty set per iteration.
// Compares the O(Δ) dirty-tracking path against the forced full-copy path.
//===----------------------------------------------------------------------===//

/// Registers a Mario-sized state: the env object, a world-sized POD region
/// and NumEntries pi lists of EntryLen floats. Returns the pi slot handles.
std::vector<NameId> setupMarioState(Session &S, MarioEnv &Env,
                                    std::vector<float> &World,
                                    size_t NumEntries, size_t EntryLen) {
  Env.reset(0x4d00);
  S.checkpoints().registerObject(&Env);
  S.checkpoints().registerRegion(World.data(),
                                  World.size() * sizeof(float));
  std::vector<NameId> Ids;
  std::vector<float> Row(EntryLen, 0.25f);
  for (size_t I = 0; I != NumEntries; ++I) {
    NameId Id = S.intern("state" + std::to_string(I));
    S.db().append(Id, Row.data(), Row.size());
    Ids.push_back(Id);
  }
  return Ids;
}

void benchCheckpoint() {
  const size_t NumEntries = 200, EntryLen = 256, WorldFloats = 4096;
  const std::string Bench = "BM_Checkpoint(mario,dirty=2)";
  std::vector<float> Row(EntryLen, 0.5f);

  auto RunLoop = [&](Session &S, const std::vector<NameId> &Ids) {
    return timeNs([&] {
      // Small dirty set: two mutated lists out of NumEntries.
      S.db().set(Ids[0], Row.data(), Row.size());
      S.db().set(Ids[1], Row.data(), Row.size());
      S.checkpoint();
    });
  };

  Engine FullEng;
  Session FullS(FullEng, Mode::TR);
  MarioEnv FullEnv;
  std::vector<float> FullWorld(WorldFloats, 1.0f);
  std::vector<NameId> FullIds =
      setupMarioState(FullS, FullEnv, FullWorld, NumEntries, EntryLen);
  FullS.checkpoints().setDirtyTracking(false);
  double Full = RunLoop(FullS, FullIds);
  printCase(Bench, "full", Full);

  Engine DirtyEng;
  Session DirtyS(DirtyEng, Mode::TR);
  MarioEnv DirtyEnv;
  std::vector<float> DirtyWorld(WorldFloats, 1.0f);
  std::vector<NameId> DirtyIds =
      setupMarioState(DirtyS, DirtyEnv, DirtyWorld, NumEntries, EntryLen);
  double Dirty = RunLoop(DirtyS, DirtyIds);
  printCase(Bench, "dirty", Dirty);
  printSpeedup(Bench, "speedup_dirty_vs_full", Full, Dirty);

  // Restore latency back to one snapshot with the same small dirty set.
  const std::string RBench = "BM_Restore(mario,dirty=2)";
  FullS.checkpoint();
  double FullR = timeNs([&] {
    FullS.db().set(FullIds[0], Row.data(), Row.size());
    FullS.db().set(FullIds[1], Row.data(), Row.size());
    FullS.restore();
  });
  printCase(RBench, "full", FullR);
  DirtyS.checkpoint();
  double DirtyR = timeNs([&] {
    DirtyS.db().set(DirtyIds[0], Row.data(), Row.size());
    DirtyS.db().set(DirtyIds[1], Row.data(), Row.size());
    DirtyS.restore();
  });
  printCase(RBench, "dirty", DirtyR);
  printSpeedup(RBench, "speedup_dirty_vs_full", FullR, DirtyR);
}

//===----------------------------------------------------------------------===//
// BM_GameLoop: the full annotated RL loop body vs the plain game loop (the
// paper's Table 3 execution-overhead ratio), string vs handle.
//===----------------------------------------------------------------------===//

void benchGameLoop() {
  {
    FlappyEnv Env;
    Env.reset(2 << 8);
    Rng R(1);
    double Plain = timeNs([&] {
      if (Env.terminal())
        Env.reset(2 << 8);
      Env.step(Env.heuristicAction(R));
    });
    printCase("BM_GameLoop", "plain", Plain);
  }

  const std::vector<std::string> Names = {"birdY", "birdV", "pipeDx",
                                          "gap1Y", "diffY"};
  auto Configure = [&](Session &S) {
    ModelConfig C;
    C.Name = "agent";
    C.Algo = Algorithm::QLearn;
    C.HiddenLayers = {32, 32};
    S.config(C);
  };

  {
    FlappyEnv Env;
    Env.reset(3 << 8);
    Engine Eng;
    Session S(Eng, Mode::TR);
    Configure(S);
    double Str = timeNs([&] {
      if (Env.terminal())
        Env.reset(3 << 8);
      std::vector<Feature> Fs = Env.features();
      for (const std::string &Nm : Names)
        S.extract(Nm, featureValue(Fs, Nm));
      std::string Ext = S.serialize(Names);
      S.nn("agent", Ext, 0.1f, false, {"output", 2});
      int Action = 0;
      S.writeBack("output", 2, &Action);
      Env.step(Action);
    });
    printCase("BM_GameLoop", "string", Str);
  }

  {
    FlappyEnv Env;
    Env.reset(3 << 8);
    Engine Eng;
    Session S(Eng, Mode::TR);
    Configure(S);
    NameId Agent = S.intern("agent");
    WriteBackHandle Output{S.intern("output"), 2};
    std::vector<NameId> Ids;
    for (const std::string &Nm : Names)
      Ids.push_back(S.intern(Nm));
    double Hdl = timeNs([&] {
      if (Env.terminal())
        Env.reset(3 << 8);
      std::vector<Feature> Fs = Env.features();
      for (size_t I = 0; I != Ids.size(); ++I)
        S.extract(Ids[I], featureValue(Fs, Names[I]));
      NameId Ext = S.serialize(Ids);
      S.nn(Agent, Ext, 0.1f, false, Output);
      int Action = 0;
      S.writeBack(Output.Name, 2, &Action);
      Env.step(Action);
    });
    printCase("BM_GameLoop", "handle", Hdl);
  }
}

} // namespace

int main() {
  benchExtract(1);
  benchExtract(32);
  benchExtract(1024);
  benchSerialize(5);
  benchSerialize(20);
  benchNnPredict(8);
  benchNnPredict(32);
  benchCheckpoint();
  benchGameLoop();
  return 0;
}
