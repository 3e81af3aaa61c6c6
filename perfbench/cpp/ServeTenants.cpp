//===- perfbench/cpp/ServeTenants.cpp - Multi-tenant serving --------------===//
//
// serve_tenants: 8 TS tenant Sessions on one Engine against a
// {128 -> 256 -> 256 -> 8} DNN, one closed-loop round at a time: every
// tenant extracts a seeded 128-float row, one Engine::nnBatchSessions
// serves the round, every tenant writes its reply back. Every TrainEvery
// rounds, before the round's tenants extract, a trainer Session on the same
// thread runs one SL epoch over a small labelled set and publishes a new
// model version: the write path beside the read path.
//
// A call's latency runs from its tenant's extract to its write-back.
//
// Checks: every reply is bitwise equal to a single-row Session::nn over the
// same row, served from the same published version by a reference session.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Engine.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace pb;
using namespace au;

namespace {

constexpr int K = 8;
constexpr int FeatDim = 128;
constexpr int OutDim = 8;
constexpr int LabelledRows = 64;
constexpr int TrainBatch = 16;
constexpr int TrainEvery = 256;
constexpr int RowPool = 4096;
const std::vector<int> Hidden = {256, 256};

class ServeTenants final : public Workload {
public:
  explicit ServeTenants(const Options &O)
      : Seed(O.Seed), InjectWrongReply(O.InjectWrongReply) {}

  void setup() override {
    // Sessions refer to their Engine, so they go first.
    Tenants.clear();
    Ref.reset();
    Trainer.reset();
    Eng.reset();
    Eng = std::make_unique<Engine>();
    Trainer = std::make_unique<Session>(*Eng, Mode::TR);
    ModelConfig C;
    C.Name = "served";
    C.HiddenLayers = Hidden;
    C.Seed = mixSeed(Seed, 21) >> 32;
    Trainer->config(C);
    ModelId = Trainer->intern(C.Name);
    Feat = Trainer->intern("feat");
    Out = {Trainer->intern("out"), OutDim};
    Outs = {Out};

    // The labelled set, collected through the primitives in TR mode.
    Rng R(mixSeed(Seed, 22));
    std::vector<float> X(FeatDim);
    float Y[OutDim];
    for (int I = 0; I < LabelledRows; ++I) {
      for (float &V : X)
        V = static_cast<float>(R.uniform(-1.0, 1.0));
      for (int J = 0; J < OutDim; ++J)
        Y[J] = X[static_cast<size_t>(J)] - 0.5f * X[static_cast<size_t>(J) + 1] +
               0.25f * X[static_cast<size_t>(16 * J)];
      {
        Span Sp(SpanName::SessionExtract, 0, FeatDim);
        Trainer->extract(Feat, FeatDim, X.data());
      }
      {
        Span Sp(SpanName::SessionNn, 0, 0);
        Trainer->nn(ModelId, Feat, Outs);
      }
      Span Sp(SpanName::SessionWriteBack);
      Trainer->writeBack(Out.Name, OutDim, Y);
    }
    Sl = static_cast<SlModel *>(Eng->getModel(ModelId));
    Losses.clear();
    Epochs = 0;
    trainAndPublish();

    Rng RowRng(mixSeed(Seed, 23));
    Rows.resize(static_cast<size_t>(RowPool) * FeatDim);
    for (float &V : Rows)
      V = static_cast<float>(RowRng.uniform(-1.0, 1.0));

    Ptrs.clear();
    for (int T = 0; T < K; ++T) {
      Tenants.push_back(std::make_unique<Session>(*Eng, Mode::TS));
      Ptrs.push_back(Tenants.back().get());
    }
    ExtIds.assign(K, Feat);
    Ref = std::make_unique<Session>(*Eng, Mode::TS);
    Ref->setSharedInference(true);
    Round = Calls = RowsForward = 0;
    LagMax = 0;
  }

  void run(double Seconds, LoopStats &L) override {
    timedLoop(Seconds, L, [&] { return round(L); });
  }

  void finish(LoopStats &) override {}

  double flops() override {
    double Row = denseFlops(FeatDim, Hidden, OutDim);
    return static_cast<double>(RowsForward) * Row +
           3.0 * static_cast<double>(Epochs) * LabelledRows * Row;
  }

  void layerValues(Values &V) override {
    V["engine.version_lag_max"] = static_cast<double>(LagMax);
    V["nn.train_steps"] =
        static_cast<double>(Epochs) *
        ((LabelledRows + TrainBatch - 1) / TrainBatch);
    V["nn.train_set_size"] = LabelledRows;
    V["nn.loss_first"] = Losses.empty() ? 0.0 : Losses.front();
    V["nn.loss_last"] = Losses.empty() ? 0.0 : Losses.back();
  }

  void aliases(std::vector<std::pair<std::string, std::string>> &A) override {
    A = {{"calls_per_s", "work_per_s"},
         {"call_us_p50", "iter_us_p50"},
         {"call_us_p99", "iter_us_p99"}};
  }

private:
  /// One SL epoch over the labelled set, then publication of the result.
  void trainAndPublish() {
    double Loss;
    {
      Span Sp(SpanName::EngineTrainSl, 0, LabelledRows);
      Loss = Sl->train(1, TrainBatch);
    }
    Span Sp(SpanName::EnginePublish);
    Eng->publishModel(ModelId);
    Losses.push_back(Loss);
    ++Epochs;
  }

  const float *row(long Call) const {
    return Rows.data() + static_cast<size_t>(Call % RowPool) * FeatDim;
  }

  /// One serving round; returns the ns its checks took.
  int64_t round(LoopStats &L) {
    if (Tracer *T = Tracer::active())
      T->setIter(static_cast<uint32_t>(Round + 1));
    int64_t T0 = nowNs();
    {
      Span It(SpanName::LoopIter);
      if (Round > 0 && Round % TrainEvery == 0)
        trainAndPublish();
      for (int T = 0; T < K; ++T) {
        CallStart[T] = nowNs();
        Span Sp(SpanName::SessionExtract, 0, FeatDim);
        Tenants[static_cast<size_t>(T)]->extract(Feat, FeatDim,
                                                 row(Calls + T));
      }
      {
        Span Sp(SpanName::EngineNnBatch, 0, K);
        Eng->nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), K, Outs);
      }
      for (int T = 0; T < K; ++T) {
        {
          Span Sp(SpanName::SessionWriteBack);
          Tenants[static_cast<size_t>(T)]->writeBack(Out.Name, OutDim,
                                                     Replies[T]);
        }
        L.addLatency(static_cast<double>(nowNs() - CallStart[T]) * 1e-3);
      }
    }
    int64_t T1 = nowNs();
    L.addIter(T1 - T0, K);
    RowsForward += K;

    // How far the reference reader trails the engine before it serves.
    LagMax = std::max(LagMax, Eng->modelVersion(ModelId) -
                                  Ref->servingVersion(ModelId));
    for (int T = 0; T < K; ++T) {
      long Call = Calls + T;
      if (Call == InjectWrongReply)
        Replies[T][0] = std::nextafter(Replies[T][0], 1e30f);
      float Expected[OutDim];
      {
        Span Sp(SpanName::SessionExtract, 0, FeatDim);
        Ref->extract(Feat, FeatDim, row(Call));
      }
      {
        Span Sp(SpanName::SessionNn, 0, 1);
        Ref->nn(ModelId, Feat, Outs);
      }
      {
        Span Sp(SpanName::SessionWriteBack);
        Ref->writeBack(Out.Name, OutDim, Expected);
      }
      RowsForward += 1;
      L.check(std::memcmp(Expected, Replies[T], sizeof(Expected)) == 0);
    }
    Calls += K;
    ++Round;
    return nowNs() - T1;
  }

  uint64_t Seed;
  long InjectWrongReply;
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<Session> Trainer;
  std::unique_ptr<Session> Ref;
  std::vector<std::unique_ptr<Session>> Tenants;
  std::vector<Session *> Ptrs;
  std::vector<NameId> ExtIds;
  SlModel *Sl = nullptr;
  NameId ModelId = InvalidNameId, Feat = InvalidNameId;
  WriteBackHandle Out;
  std::vector<WriteBackHandle> Outs;
  std::vector<float> Rows;
  float Replies[K][OutDim] = {};
  int64_t CallStart[K] = {};
  std::vector<double> Losses;
  long Epochs = 0, Round = 0, Calls = 0, RowsForward = 0;
  uint64_t LagMax = 0;
};

} // namespace

std::unique_ptr<Workload> pb::makeServeTenants(const Options &O) {
  return std::make_unique<ServeTenants>(O);
}
