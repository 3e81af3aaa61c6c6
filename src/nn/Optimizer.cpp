//===- nn/Optimizer.cpp - Adam optimizer ---------------------------------===//

#include "nn/Optimizer.h"

#include "nn/Gemm.h"
#include "nn/Network.h"

#include <cassert>
#include <cmath>

using namespace au;
using namespace au::nn;

Adam::Adam(Network &Net, double LearningRate, double Beta1, double Beta2,
           double Epsilon)
    : Net(&Net), Lr(LearningRate), B1(Beta1), B2(Beta2), Eps(Epsilon) {
  assert(Lr > 0 && "learning rate must be positive");
  const std::vector<ParamView> &Params = Net.params();
  M.reserve(Params.size());
  V.reserve(Params.size());
  for (const ParamView &P : Params) {
    M.emplace_back(P.Count, 0.0f);
    V.emplace_back(P.Count, 0.0f);
  }
}

void Adam::step(double BatchScale) {
  ++Step;
  double Bias1 = 1.0 - std::pow(B1, Step);
  double Bias2 = 1.0 - std::pow(B2, Step);
  const std::vector<ParamView> &Params = Net->params();
  for (size_t T = 0, E = Params.size(); T != E; ++T) {
    const ParamView &P = Params[T];
    adamUpdateKernel(P.Values, P.Grads, M[T].data(), V[T].data(), P.Count, Lr,
                     B1, B2, Eps, Bias1, Bias2, BatchScale);
  }
  Net->bumpParamGeneration();
}
