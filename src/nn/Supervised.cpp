//===- nn/Supervised.cpp - Supervised (AdamOpt) trainer ------------------===//

#include "nn/Supervised.h"

#include "nn/Loss.h"
#include "nn/Workspace.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace au;
using namespace au::nn;

SupervisedTrainer::SupervisedTrainer(Network N, double LearningRate)
    : Net(std::move(N)), Opt(Net, LearningRate) {}

void SupervisedTrainer::addSample(std::vector<float> X, std::vector<float> Y) {
  assert(!X.empty() && !Y.empty() && "empty sample");
  if (!Data.empty()) {
    assert(X.size() == Data.front().X.size() && "inconsistent feature size");
    assert(Y.size() == Data.front().Y.size() && "inconsistent target size");
  }
  Data.push_back({std::move(X), std::move(Y)});
  Normalized = false;
}

void SupervisedTrainer::computeNormalization() {
  size_t NX = Data.front().X.size(), NY = Data.front().Y.size();
  auto &[XMean, XStd, YMean, YStd] = Norm;
  XMean.assign(NX, 0.0f);
  XStd.assign(NX, 0.0f);
  YMean.assign(NY, 0.0f);
  YStd.assign(NY, 0.0f);
  double InvN = 1.0 / static_cast<double>(Data.size());
  for (const Sample &S : Data) {
    for (size_t I = 0; I != NX; ++I)
      XMean[I] += static_cast<float>(S.X[I] * InvN);
    for (size_t I = 0; I != NY; ++I)
      YMean[I] += static_cast<float>(S.Y[I] * InvN);
  }
  for (const Sample &S : Data) {
    for (size_t I = 0; I != NX; ++I)
      XStd[I] += static_cast<float>((S.X[I] - XMean[I]) * (S.X[I] - XMean[I]) *
                                    InvN);
    for (size_t I = 0; I != NY; ++I)
      YStd[I] += static_cast<float>((S.Y[I] - YMean[I]) * (S.Y[I] - YMean[I]) *
                                    InvN);
  }
  for (float &V : XStd)
    V = V > 1e-12f ? std::sqrt(V) : 1.0f;
  for (float &V : YStd)
    V = V > 1e-12f ? std::sqrt(V) : 1.0f;
  Normalized = true;
}

double SupervisedTrainer::train(int Epochs, int BatchSize, Rng &Rand) {
  if (Data.empty())
    return 0.0;
  assert(Epochs > 0 && BatchSize > 0 && "invalid training schedule");
  if (!Normalized)
    computeNormalization();

  std::vector<size_t> Order(Data.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  size_t NX = Data.front().X.size(), NY = Data.front().Y.size();
  const auto &[XMean, XStd, YMean, YStd] = Norm;
  // Minibatch staging tensors, reused across batches and epochs.
  Tensor BatchX, BatchY, GradB;

  double EpochLoss = 0.0;
  for (int Ep = 0; Ep < Epochs; ++Ep) {
    // Fisher-Yates shuffle with the deterministic RNG.
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rand.uniformInt(I)]);

    EpochLoss = 0.0;
    // One batched forward/backward per minibatch; the layers accumulate the
    // gradients summed over the batch.
    for (size_t Start = 0; Start < Order.size();
         Start += static_cast<size_t>(BatchSize)) {
      size_t Bn = std::min<size_t>(static_cast<size_t>(BatchSize),
                                   Order.size() - Start);
      if (BatchX.rank() != 2 || BatchX.dim(0) != static_cast<int>(Bn)) {
        BatchX = Tensor({static_cast<int>(Bn), static_cast<int>(NX)});
        BatchY = Tensor({static_cast<int>(Bn), static_cast<int>(NY)});
      }
      for (size_t R = 0; R != Bn; ++R) {
        const Sample &Smp = Data[Order[Start + R]];
        float *XRow = BatchX.sampleData(static_cast<int>(R));
        for (size_t I = 0; I != NX; ++I)
          XRow[I] = (Smp.X[I] - XMean[I]) / XStd[I];
        float *YRow = BatchY.sampleData(static_cast<int>(R));
        for (size_t I = 0; I != NY; ++I)
          YRow[I] = (Smp.Y[I] - YMean[I]) / YStd[I];
      }
      Tensor Pred = Net.forward(BatchX, &Ctx);
      EpochLoss += mseLossBatch(Pred, BatchY, GradB);
      Workspace::release(Pred);
      Net.backward(GradB, Ctx);
      Opt.step(1.0 / static_cast<double>(Bn));
    }
    EpochLoss /= static_cast<double>(Data.size());
  }
  return EpochLoss;
}

void au::nn::predictRows(const Network &Net, const Normalization &Norm,
                         const float *Xs, int Rows, std::vector<float> &Out) {
  assert(Xs && Rows > 0 && "invalid row buffer");
  const auto &[XMean, XStd, YMean, YStd] = Norm;
  const size_t NX = XMean.size(), NY = YMean.size();
  Tensor In = Workspace::acquire({Rows, static_cast<int>(NX)});
  for (int R = 0; R != Rows; ++R) {
    const float *Row = Xs + static_cast<size_t>(R) * NX;
    float *Dst = In.sampleData(R);
    for (size_t I = 0; I != NX; ++I)
      Dst[I] = (Row[I] - XMean[I]) / XStd[I];
  }
  Tensor Pred = Net.forward(In);
  Workspace::release(In);
  assert(Pred.size() == static_cast<size_t>(Rows) * NY &&
         "model output size mismatch");
  Out.resize(static_cast<size_t>(Rows) * NY);
  for (int R = 0; R != Rows; ++R) {
    const float *Row = Pred.sampleData(R);
    for (size_t I = 0; I != NY; ++I)
      Out[static_cast<size_t>(R) * NY + I] = Row[I] * YStd[I] + YMean[I];
  }
  Workspace::release(Pred);
}

void SupervisedTrainer::predictRowsInto(const float *Xs, int Rows,
                                        std::vector<float> &Out) {
  assert(Normalized && "predict before train");
  predictRows(Net, Norm, Xs, Rows, Out);
}

std::vector<float> SupervisedTrainer::predict(const std::vector<float> &X) {
  std::vector<float> Y;
  predictRowsInto(X.data(), 1, Y);
  return Y;
}

const Normalization &SupervisedTrainer::normalization() {
  if (!Normalized) {
    assert(!Data.empty() && "no data to compute normalization from");
    computeNormalization();
  }
  return Norm;
}

void SupervisedTrainer::setNormalization(Normalization N) {
  assert(N.XMean.size() == N.XStd.size() && N.YMean.size() == N.YStd.size() &&
         "normalization vector size mismatch");
  Norm = std::move(N);
  Normalized = true;
}

double SupervisedTrainer::meanAbsError() {
  if (Data.empty())
    return 0.0;
  double Total = 0.0;
  for (const Sample &S : Data) {
    std::vector<float> P = predict(S.X);
    double Err = 0.0;
    for (size_t I = 0; I != P.size(); ++I)
      Err += std::abs(P[I] - S.Y[I]);
    Total += Err / static_cast<double>(P.size());
  }
  return Total / static_cast<double>(Data.size());
}
