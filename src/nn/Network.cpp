//===- nn/Network.cpp - Sequential neural network -------------------------===//

#include "nn/Network.h"

#include "nn/Layers.h"
#include "nn/Workspace.h"
#include "support/Rng.h"

#include <cstdio>
#include <cstring>

using namespace au;
using namespace au::nn;

Network &Network::add(std::unique_ptr<Layer> L) {
  assert(L && "adding a null layer");
  if (FirstParamLayer == Layers.size() && L->params().empty())
    ++FirstParamLayer;
  Layers.push_back(std::move(L));
  return *this;
}

Tensor Network::forwardBatch(const Tensor &In) {
  assert(In.rank() >= 2 && "batched input needs a leading batch dimension");
  assert(!Layers.empty() && "forwardBatch on an empty network");
  // Layers return workspace tensors; release each intermediate back to the
  // arena as soon as the next layer has consumed it. The caller's input is
  // never released (it is not ours), and the final output is the caller's to
  // release.
  Tensor X = Layers.front()->forwardBatch(In);
  for (size_t I = 1, E = Layers.size(); I != E; ++I) {
    Tensor Y = Layers[I]->forwardBatch(X);
    Workspace::release(X);
    X = std::move(Y);
  }
  return X;
}

Tensor Network::backwardBatch(const Tensor &GradOut, bool WantGradIn) {
  assert(!Layers.empty() && "backwardBatch on an empty network");
  // Without an input gradient to return, the layers in front of the first
  // one with parameters have nothing to compute.
  size_t Stop = WantGradIn ? 0 : FirstParamLayer;
  if (Stop == Layers.size())
    return Tensor();
  size_t I = Layers.size() - 1;
  Tensor G = Layers[I]->backwardBatch(GradOut, WantGradIn || I != Stop);
  while (I-- > Stop) {
    Tensor H = Layers[I]->backwardBatch(G, WantGradIn || I != Stop);
    Workspace::release(G);
    G = std::move(H);
  }
  return G;
}

std::vector<ParamView> Network::params() {
  std::vector<ParamView> All;
  for (auto &L : Layers)
    for (ParamView P : L->params())
      All.push_back(P);
  return All;
}

void Network::zeroGrads() {
  for (auto &L : Layers)
    L->zeroGrads();
}

size_t Network::numParams() {
  size_t N = 0;
  for (auto &L : Layers)
    N += L->numParams();
  return N;
}

size_t Network::sizeInBytes() {
  // float32 parameters plus an 8-byte count header per parameter tensor.
  size_t Bytes = 0;
  for (ParamView P : params())
    Bytes += 8 + P.Count * sizeof(float);
  return Bytes;
}

void Network::bumpParamGeneration() {
  for (auto &L : Layers)
    L->bumpParamGen();
}

void Network::copyParamsFrom(Network &Other) {
  std::vector<ParamView> Dst = params();
  std::vector<ParamView> Src = Other.params();
  assert(Dst.size() == Src.size() && "network architecture mismatch");
  for (size_t I = 0, E = Dst.size(); I != E; ++I) {
    assert(Dst[I].Count == Src[I].Count && "parameter tensor size mismatch");
    std::memcpy(Dst[I].Values, Src[I].Values, Dst[I].Count * sizeof(float));
  }
  bumpParamGeneration();
}

bool Network::saveParams(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = true;
  for (ParamView P : params()) {
    uint64_t N = P.Count;
    Ok = Ok && std::fwrite(&N, sizeof(N), 1, F) == 1;
    Ok = Ok && std::fwrite(P.Values, sizeof(float), P.Count, F) == P.Count;
  }
  std::fclose(F);
  return Ok;
}

bool Network::loadParams(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  bool Ok = true;
  for (ParamView P : params()) {
    uint64_t N = 0;
    Ok = Ok && std::fread(&N, sizeof(N), 1, F) == 1 && N == P.Count;
    Ok = Ok && std::fread(P.Values, sizeof(float), P.Count, F) == P.Count;
    if (!Ok)
      break;
  }
  std::fclose(F);
  if (Ok)
    bumpParamGeneration();
  return Ok;
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
