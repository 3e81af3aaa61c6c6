//===- bench/serve_throughput.cpp - Multi-tenant serving throughput ------===//
//
// Measures the payoff of the Engine/Session split (DESIGN.md §10) for
// concurrent TS-mode serving: K client sessions each issue au_NN
// predictions against one shared model.
//
//   per-call : each session runs its own extract -> nn -> write_back loop
//              (K independent single-session loops, the pre-split shape).
//   batched  : the K calls of one round fuse into ONE
//              Engine::nnBatchSessions pass — one forward serves
//              every tenant's row.
//
// Output: one JSON line per case,
//
//   {"bench": "BM_Serve", "api": "per_call|batched", "sessions": K,
//    "threads": N, "cores": C, "calls_per_sec": ..., "p50_us": ...,
//    "p99_us": ..., "speedup_vs_per_call": ...}
//
// so BENCH_serve_throughput.json baselines can be diffed across PRs.
// Latency is per client call: a batched client's call completes when its
// round's fused pass completes, so the round time is every rider's latency.
//
// Both cases serve from the published snapshot, and every reply is checked
// bitwise against the live model's prediction for the same row; any
// mismatch is reported on stderr and the bench exits non-zero.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Engine.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

using namespace au;
using namespace au::bench;

namespace {

constexpr int FeatDim = 128;
constexpr int OutDim = 8;

/// Distinct but deterministic probe row per session.
void probeRow(int K, float *X) {
  for (int J = 0; J < FeatDim; ++J)
    X[J] = 0.25f + 0.03f * static_cast<float>(K % 7) +
           0.01f * static_cast<float>(J % 13);
}

/// Trains and publishes the shared model every serving case binds to.
NameId trainServedModel(Engine &Eng, Session &Trainer) {
  ModelConfig Cfg;
  Cfg.Name = "Served";
  Cfg.HiddenLayers = {256, 256};
  Cfg.Seed = 42;
  Trainer.config(Cfg);
  NameId ModelId = Trainer.intern("Served");
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), OutDim};
  for (int I = 0; I < 64; ++I) {
    float X[FeatDim];
    probeRow(I, X);
    Trainer.extract(Feat, FeatDim, X);
    Trainer.nn(ModelId, Feat, {Out});
    float Label[OutDim];
    for (int J = 0; J < OutDim; ++J)
      Label[J] = X[J] - X[J + 1];
    Trainer.writeBack(Out.Name, OutDim, Label);
  }
  Trainer.trainSupervised("Served", /*Epochs=*/2, /*BatchSize=*/16);
  return ModelId;
}

struct ServeResult {
  double CallsPerSec = 0.0;
  double P50Us = 0.0;
  double P99Us = 0.0;
  long Mismatches = 0; ///< Replies not bitwise equal to the reference.
};

/// The live model's predictions for the probe rows of sessions 0..K-1,
/// OutDim floats per row: what every served reply must equal bitwise.
std::vector<float> referenceReplies(Engine &Eng, NameId ModelId, int K) {
  std::vector<float> Rows(static_cast<size_t>(K) * FeatDim), Ref;
  for (int S = 0; S < K; ++S)
    probeRow(S, Rows.data() + static_cast<size_t>(S) * FeatDim);
  static_cast<SlModel *>(Eng.getModel(ModelId))
      ->predictRows(Rows.data(), K, Ref);
  return Ref;
}

bool sameReply(const float *Pred, const std::vector<float> &Ref, int S) {
  return std::memcmp(Pred, Ref.data() + static_cast<size_t>(S) * OutDim,
                     OutDim * sizeof(float)) == 0;
}

double percentile(std::vector<double> &Xs, double P) {
  std::sort(Xs.begin(), Xs.end());
  size_t I = static_cast<size_t>(P * static_cast<double>(Xs.size() - 1));
  return Xs[I];
}

/// K single-session loops, one per-call au_NN each per round.
ServeResult servePerCall(Engine &Eng, NameId ModelId, int K, long Rounds,
                         const std::vector<float> &Ref) {
  std::vector<std::unique_ptr<Session>> Sess;
  for (int S = 0; S < K; ++S)
    Sess.push_back(std::make_unique<Session>(Eng, Mode::TS));
  NameId Feat = Eng.intern("feat");
  WriteBackHandle Out{Eng.intern("out"), OutDim};
  std::vector<float> Rows(static_cast<size_t>(K) * FeatDim);
  for (int S = 0; S < K; ++S)
    probeRow(S, Rows.data() + static_cast<size_t>(S) * FeatDim);

  std::vector<double> CallUs;
  CallUs.reserve(static_cast<size_t>(Rounds) * K);
  float Pred[OutDim];
  ServeResult Res;
  Timer Total;
  for (long R = 0; R < Rounds; ++R)
    for (int S = 0; S < K; ++S) {
      Timer T;
      Session &C = *Sess[static_cast<size_t>(S)];
      C.extract(Feat, FeatDim, Rows.data() + static_cast<size_t>(S) * FeatDim);
      C.nn(ModelId, Feat, {Out});
      C.writeBack(Out.Name, OutDim, Pred);
      CallUs.push_back(T.seconds() * 1e6);
      Res.Mismatches += !sameReply(Pred, Ref, S);
    }
  double Secs = Total.seconds();

  Res.CallsPerSec = static_cast<double>(Rounds) * K / Secs;
  Res.P50Us = percentile(CallUs, 0.50);
  Res.P99Us = percentile(CallUs, 0.99);
  return Res;
}

/// K sessions served by one fused nnBatchSessions pass per round.
ServeResult serveBatched(Engine &Eng, NameId ModelId, int K, long Rounds,
                         const std::vector<float> &Ref) {
  std::vector<std::unique_ptr<Session>> Sess;
  std::vector<Session *> Ptrs;
  for (int S = 0; S < K; ++S) {
    Sess.push_back(std::make_unique<Session>(Eng, Mode::TS));
    Ptrs.push_back(Sess.back().get());
  }
  NameId Feat = Eng.intern("feat");
  WriteBackHandle Out{Eng.intern("out"), OutDim};
  std::vector<WriteBackHandle> Outs{Out};
  std::vector<NameId> ExtIds(static_cast<size_t>(K), Feat);
  std::vector<float> Rows(static_cast<size_t>(K) * FeatDim);
  for (int S = 0; S < K; ++S)
    probeRow(S, Rows.data() + static_cast<size_t>(S) * FeatDim);

  std::vector<double> RoundUs;
  RoundUs.reserve(static_cast<size_t>(Rounds));
  std::vector<float> Preds(static_cast<size_t>(K) * OutDim);
  ServeResult Res;
  Timer Total;
  for (long R = 0; R < Rounds; ++R) {
    Timer T;
    for (int S = 0; S < K; ++S)
      Sess[static_cast<size_t>(S)]->extract(
          Feat, FeatDim, Rows.data() + static_cast<size_t>(S) * FeatDim);
    Eng.nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), K, Outs);
    for (int S = 0; S < K; ++S)
      Sess[static_cast<size_t>(S)]->writeBack(
          Out.Name, OutDim, Preds.data() + static_cast<size_t>(S) * OutDim);
    RoundUs.push_back(T.seconds() * 1e6);
    for (int S = 0; S < K; ++S)
      Res.Mismatches +=
          !sameReply(Preds.data() + static_cast<size_t>(S) * OutDim, Ref, S);
  }
  double Secs = Total.seconds();

  Res.CallsPerSec = static_cast<double>(Rounds) * K / Secs;
  // Every rider of a round completes with the round.
  Res.P50Us = percentile(RoundUs, 0.50);
  Res.P99Us = percentile(RoundUs, 0.99);
  return Res;
}

void emit(const char *Api, int K, const ServeResult &R, double Speedup) {
  std::printf("{\"bench\": \"BM_Serve\", \"api\": \"%s\", \"sessions\": %d, "
              "%s, \"calls_per_sec\": %.0f, \"p50_us\": %.2f, "
              "\"p99_us\": %.2f",
              Api, K, machineFields().c_str(), R.CallsPerSec, R.P50Us,
              R.P99Us);
  if (Speedup > 0)
    std::printf(", \"speedup_vs_per_call\": %.2f", Speedup);
  std::printf("}\n");
}

} // namespace

int main() {
  banner("Multi-tenant serving: per-call vs cross-session batching");

  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainServedModel(Eng, Trainer);

  const long Rounds = scaled(2000, 50);
  long Mismatches = 0;
  for (int K : {1, 2, 4, 8, 16}) {
    const std::vector<float> Ref = referenceReplies(Eng, ModelId, K);
    // Warm both paths (snapshot refresh, staging growth), then measure.
    servePerCall(Eng, ModelId, K, 10, Ref);
    serveBatched(Eng, ModelId, K, 10, Ref);
    ServeResult Per = servePerCall(Eng, ModelId, K, Rounds, Ref);
    ServeResult Bat = serveBatched(Eng, ModelId, K, Rounds, Ref);
    emit("per_call", K, Per, 0.0);
    emit("batched", K, Bat, Bat.CallsPerSec / Per.CallsPerSec);
    if (Per.Mismatches || Bat.Mismatches)
      std::fprintf(stderr,
                   "K = %d: %ld per-call and %ld batched replies differ "
                   "from the live model's\n",
                   K, Per.Mismatches, Bat.Mismatches);
    Mismatches += Per.Mismatches + Bat.Mismatches;
  }
  return Mismatches ? 1 : 0;
}
