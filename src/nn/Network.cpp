//===- nn/Network.cpp - Sequential neural network -------------------------===//

#include "nn/Network.h"

#include "nn/Layers.h"
#include "nn/Workspace.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstring>

using namespace au;
using namespace au::nn;

void ForwardCtx::release() {
  for (Tensor &A : Acts)
    Workspace::release(A);
  for (LayerCtx &L : Layers) {
    L.In = nullptr;
    Workspace::release(L.Saved);
  }
}

Network &Network::add(std::unique_ptr<Layer> L) {
  assert(L && "adding a null layer");
  std::vector<ParamView> Ps = L->params();
  if (FirstParamLayer == Layers.size() && Ps.empty())
    ++FirstParamLayer;
  Params.insert(Params.end(), Ps.begin(), Ps.end());
  Layers.push_back(std::move(L));
  return *this;
}

Tensor Network::forward(const Tensor &In, ForwardCtx *Ctx) const {
  assert(In.rank() >= 2 && "batched input needs a leading batch dimension");
  assert(!Layers.empty() && "forward on an empty network");
  const size_t E = Layers.size();
  if (!Ctx) {
    // Release each intermediate back to the arena as soon as the next
    // layer has read it. The caller's input is never released (it is not
    // ours), and the final output is the caller's to release.
    Tensor X = Layers.front()->forward(In, nullptr);
    for (size_t I = 1; I != E; ++I) {
      Tensor Y = Layers[I]->forward(X, nullptr);
      Workspace::release(X);
      X = std::move(Y);
    }
    return X;
  }
  Ctx->release(); // What a forward without its backward left behind.
  Ctx->Layers.resize(E);
  Ctx->Acts.resize(E);
  const Tensor *X = &In;
  for (size_t I = 0;; ++I) {
    LayerCtx &LC = Ctx->Layers[I];
    Tensor Y = Layers[I]->forward(*X, &LC);
    // An intermediate that no backward reads goes back to the arena now;
    // one the layer pointed its context at lives until backward.
    if (I != 0 && LC.In != X)
      Workspace::release(Ctx->Acts[I - 1]);
    if (I + 1 == E)
      return Y;
    Ctx->Acts[I] = std::move(Y);
    X = &Ctx->Acts[I];
  }
}

Tensor Network::backward(const Tensor &GradOut, ForwardCtx &Ctx,
                         bool WantGradIn) {
  assert(Ctx.Layers.size() == Layers.size() &&
         "backward without a matching forward");
  // Without an input gradient to return, the layers in front of the first
  // one with parameters have nothing to compute.
  size_t Stop = WantGradIn ? 0 : FirstParamLayer;
  Tensor G;
  for (size_t I = Layers.size(); I-- > Stop;) {
    Tensor H = Layers[I]->backward(I + 1 == Layers.size() ? GradOut : G,
                                   Ctx.Layers[I], WantGradIn || I != Stop);
    Workspace::release(G);
    G = std::move(H);
    // Layer I's input and saved state have no reader left.
    if (I != 0)
      Workspace::release(Ctx.Acts[I - 1]);
    Workspace::release(Ctx.Layers[I].Saved);
  }
  Ctx.release();
  return G;
}

void Network::zeroGrads() {
  for (ParamView P : Params)
    std::fill(P.Grads, P.Grads + P.Count, 0.0f);
}

size_t Network::numParams() const {
  size_t N = 0;
  for (ParamView P : Params)
    N += P.Count;
  return N;
}

size_t Network::sizeInBytes() const {
  // float32 parameters plus an 8-byte count header per parameter tensor.
  size_t Bytes = 0;
  for (ParamView P : Params)
    Bytes += 8 + P.Count * sizeof(float);
  return Bytes;
}

void Network::bumpParamGeneration() {
  for (auto &L : Layers)
    L->bumpParamGen();
}

void Network::copyParamsFrom(const Network &Other) {
  const std::vector<ParamView> &Src = Other.Params;
  assert(Params.size() == Src.size() && "network architecture mismatch");
  for (size_t I = 0, E = Params.size(); I != E; ++I) {
    assert(Params[I].Count == Src[I].Count && "parameter tensor size mismatch");
    std::memcpy(Params[I].Values, Src[I].Values,
                Params[I].Count * sizeof(float));
  }
  bumpParamGeneration();
}

void Network::pack() const {
  for (auto &L : Layers)
    L->pack();
}

Network Network::clone() const {
  Network Copy;
  for (auto &L : Layers)
    Copy.add(L->clone());
  return Copy;
}

Network au::nn::buildDnn(int InSize, const std::vector<int> &Hidden,
                         int OutSize, Rng &Rand) {
  assert(InSize > 0 && OutSize > 0 && "invalid DNN sizes");
  Network Net;
  int Prev = InSize;
  for (int H : Hidden) {
    Net.add(std::make_unique<Dense>(Prev, H, Rand));
    Net.add(std::make_unique<ReLU>());
    Prev = H;
  }
  Net.add(std::make_unique<Dense>(Prev, OutSize, Rand));
  return Net;
}

Network au::nn::buildDeepMindCnn(int Channels, int Side,
                                 const std::vector<int> &Hidden, int OutSize,
                                 Rng &Rand) {
  assert(Side >= 12 && Side % 4 == 0 &&
         "CNN input side must be >= 12 and divisible by 4");
  Network Net;
  // Accept flat inputs from the runtime's database store.
  Net.add(std::make_unique<Reshape>(std::vector<int>{Channels, Side, Side}));
  // Two conv+pool stages (a scaled-down version of the three-stage DeepMind
  // front end, matched to the small frames our simulators render).
  Net.add(std::make_unique<Conv2D>(Channels, 8, 3, 1, Rand));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<MaxPool2D>());
  Net.add(std::make_unique<Conv2D>(8, 16, 3, 1, Rand));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<MaxPool2D>());
  Net.add(std::make_unique<Flatten>());
  // Infer the flattened size by shape arithmetic: conv (valid, k=3) then
  // pool halves, twice.
  int S1 = (Side - 2) / 2;
  int S2 = (S1 - 2) / 2;
  assert(S2 > 0 && "CNN input too small for two conv/pool stages");
  int Prev = 16 * S2 * S2;
  for (int H : Hidden) {
    Net.add(std::make_unique<Dense>(Prev, H, Rand));
    Net.add(std::make_unique<ReLU>());
    Prev = H;
  }
  Net.add(std::make_unique<Dense>(Prev, OutSize, Rand));
  return Net;
}
