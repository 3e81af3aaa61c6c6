//===- nn/Layers.cpp - Concrete layer implementations --------------------===//

#include "nn/Layers.h"

#include "nn/Gemm.h"
#include "nn/Workspace.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace au;
using namespace au::nn;

Layer::~Layer() = default;

//===----------------------------------------------------------------------===//
// Dense
//===----------------------------------------------------------------------===//

Dense::Dense(int InSize, int OutSize, Rng &Rand) : In(InSize), Out(OutSize) {
  assert(InSize > 0 && OutSize > 0 && "dense layer sizes must be positive");
  W.resize(static_cast<size_t>(In) * Out);
  B.assign(static_cast<size_t>(Out), 0.0f);
  GW.assign(W.size(), 0.0f);
  GB.assign(B.size(), 0.0f);
  // He-uniform initialization, appropriate for the ReLU stacks used here.
  double Limit = std::sqrt(6.0 / In);
  for (float &V : W)
    V = static_cast<float>(Rand.uniform(-Limit, Limit));
}

Tensor Dense::forward(const Tensor &Input, LayerCtx *Ctx) const {
  assert(Input.rank() == 2 && Input.dim(1) == In &&
         "dense batched input shape mismatch");
  int BN = Input.dim(0);
  if (Ctx)
    Ctx->In = &Input;
  Tensor Y = Workspace::acquire({BN, Out});
  // Prefill each row with the bias, then accumulate X * W^T on top, so each
  // output is B[O] + sum_i X[i] * W[O][i] summed i-ascending. W^T is served
  // from the packed cache, so steady-state inference skips all packing work.
  float *YD = Y.data();
  biasAddRowsKernel(YD, B.data(), BN, Out);
  pack();
  sgemmPackedB(/*TransA=*/false, PackedWT, BN, Out, In, 1.0f, Input.data(),
               In, 1.0f, YD, Out);
  return Y;
}

Dense::Dense(const Dense &Src, ForwardOnlyCopy)
    : Layer(Src), In(Src.In), Out(Src.Out), W(Src.W), B(Src.B),
      PackedWT(Src.PackedWT) {}

std::unique_ptr<Layer> Dense::clone() const {
  return std::unique_ptr<Layer>(new Dense(*this, ForwardOnlyCopy{}));
}

void Dense::pack() const {
  ensurePackedB(PackedWT, paramGen(), /*TransB=*/true, In, Out, W.data(), In);
}

Tensor Dense::backward(const Tensor &GradOut, LayerCtx &Ctx,
                       bool NeedGradIn) {
  assert(GradOut.rank() == 2 && GradOut.dim(1) == Out &&
         "dense batched gradient shape mismatch");
  int BN = GradOut.dim(0);
  assert(Ctx.In && Ctx.In->rank() == 2 && Ctx.In->dim(0) == BN &&
         "batched backward without matching forward");
  const float *G = GradOut.data();
  // Bias gradients in fixed ascending-sample order.
  for (int R = 0; R < BN; ++R) {
    const float *GRow = G + static_cast<size_t>(R) * Out;
    for (int O = 0; O < Out; ++O)
      GB[O] += GRow[O];
  }
  // Weight gradients: GW += GradOut^T * X. Row-parallel over Out with
  // ascending-sample accumulation per element — deterministic.
  sgemm(/*TransA=*/true, /*TransB=*/false, Out, In, BN, 1.0f, G, Out,
        Ctx.In->data(), In, 1.0f, GW.data(), In);
  if (!NeedGradIn)
    return Tensor();
  // Input gradients: GI = GradOut * W, with W served from the packed cache.
  Tensor GI = Workspace::acquire({BN, In});
  ensurePackedB(PackedWB, paramGen(), /*TransB=*/false, Out, In, W.data(),
                In);
  sgemmPackedB(/*TransA=*/false, PackedWB, BN, In, Out, 1.0f, G, Out, 0.0f,
               GI.data(), In);
  return GI;
}

std::vector<ParamView> Dense::params() {
  return {{W.data(), GW.data(), W.size()}, {B.data(), GB.data(), B.size()}};
}

//===----------------------------------------------------------------------===//
// ReLU
//===----------------------------------------------------------------------===//

Tensor ReLU::forward(const Tensor &In, LayerCtx *Ctx) const {
  if (Ctx)
    Ctx->In = &In;
  Tensor Y = Workspace::acquire(In.shape());
  float *D = Y.data();
  const float *S = In.data();
  ThreadPool::global().parallelFor(0, Y.size(), 8192,
                                   [&](size_t B, size_t E) {
    std::memcpy(D + B, S + B, sizeof(float) * (E - B));
    reluForwardKernel(D + B, E - B);
  });
  return Y;
}

Tensor ReLU::backward(const Tensor &GradOut, LayerCtx &Ctx, bool) {
  assert(Ctx.In && GradOut.size() == Ctx.In->size() &&
         "relu batched gradient size mismatch");
  Tensor GradIn = Workspace::acquire(GradOut.shape());
  float *D = GradIn.data();
  const float *S = GradOut.data();
  const float *X = Ctx.In->data();
  ThreadPool::global().parallelFor(0, GradIn.size(), 8192,
                                   [&](size_t B, size_t E) {
    std::memcpy(D + B, S + B, sizeof(float) * (E - B));
    reluBackwardKernel(D + B, X + B, E - B);
  });
  return GradIn;
}

//===----------------------------------------------------------------------===//
// Conv2D
//===----------------------------------------------------------------------===//

Conv2D::Conv2D(int InChannels, int OutChannels, int KernelSize, int Stride,
               Rng &Rand)
    : InC(InChannels), OutC(OutChannels), K(KernelSize), S(Stride) {
  assert(InC > 0 && OutC > 0 && K > 0 && S > 0 && "invalid conv parameters");
  W.resize(static_cast<size_t>(OutC) * InC * K * K);
  B.assign(static_cast<size_t>(OutC), 0.0f);
  GW.assign(W.size(), 0.0f);
  GB.assign(B.size(), 0.0f);
  double Limit = std::sqrt(6.0 / (static_cast<double>(InC) * K * K));
  for (float &V : W)
    V = static_cast<float>(Rand.uniform(-Limit, Limit));
}

Tensor Conv2D::forward(const Tensor &Input, LayerCtx *Ctx) const {
  assert(Input.rank() == 4 && Input.dim(1) == InC &&
         "conv batched input shape mismatch");
  int BN = Input.dim(0), H = Input.dim(2), Wd = Input.dim(3);
  assert(H >= K && Wd >= K && "conv input smaller than kernel");
  int OH = convOutDim(H, K, S), OW = convOutDim(Wd, K, S);
  int CKK = InC * K * K;
  size_t ColSz = static_cast<size_t>(CKK) * OH * OW;
  // The whole batch's im2col columns ([Batch][InC*K*K][OH*OW]), which the
  // weight-gradient GEMM of a training pass reads again.
  Tensor Cols = Workspace::acquire({BN, CKK, OH * OW});
  Tensor OutT = Workspace::acquire({BN, OutC, OH, OW});
  size_t InSz = Input.sampleSize(), OutSz = OutT.sampleSize();
  const float *InD = Input.data();
  float *OutD = OutT.data();
  size_t PlaneSz = static_cast<size_t>(OH) * OW;
  const bool Simd = backend() == Backend::Simd;
  // Samples are independent: lower each to columns and run the per-sample
  // GEMM Out_b = W * Col_b (+ bias) in parallel across the batch. The simd
  // engine seeds its accumulators with the bias (no fill pass, no Beta
  // read-modify pass over Out).
  ThreadPool::global().parallelFor(0, static_cast<size_t>(BN), 1,
                                   [&](size_t B0, size_t B1) {
    for (size_t Bi = B0; Bi != B1; ++Bi) {
      float *Col = Cols.data() + Bi * ColSz;
      im2col(InD + Bi * InSz, InC, H, Wd, K, S, Col);
      float *O = OutD + Bi * OutSz;
      if (Simd) {
        sgemmConvBias(OutC, OH * OW, CKK, W.data(), CKK, Col, OH * OW,
                      B.data(), O, OH * OW);
        continue;
      }
      for (int Oc = 0; Oc < OutC; ++Oc)
        std::fill(O + Oc * PlaneSz, O + (Oc + 1) * PlaneSz, B[Oc]);
      sgemm(/*TransA=*/false, /*TransB=*/false, OutC, OH * OW, CKK, 1.0f,
            W.data(), CKK, Col, OH * OW, 1.0f, O, OH * OW);
    }
  });
  if (!Ctx) {
    Workspace::release(Cols);
    return OutT;
  }
  Ctx->InShape = Input.shape();
  Workspace::release(Ctx->Saved);
  Ctx->Saved = std::move(Cols);
  return OutT;
}

Tensor Conv2D::backward(const Tensor &GradOut, LayerCtx &Ctx,
                        bool NeedGradIn) {
  assert(GradOut.rank() == 4 && GradOut.dim(1) == OutC &&
         "conv batched gradient shape mismatch");
  int BN = GradOut.dim(0), OH = GradOut.dim(2), OW = GradOut.dim(3);
  int CKK = InC * K * K;
  size_t ColSz = static_cast<size_t>(CKK) * OH * OW;
  assert(Ctx.InShape.size() == 4 && Ctx.InShape[0] == BN &&
         Ctx.Saved.size() == static_cast<size_t>(BN) * ColSz &&
         "batched backward without matching forward");
  int H = Ctx.InShape[2], Wd = Ctx.InShape[3];
  const float *Cols = Ctx.Saved.data();
  size_t GSz = GradOut.sampleSize();
  const float *GD = GradOut.data();
  size_t PlaneSz = static_cast<size_t>(OH) * OW;

  // Bias gradients: data-parallel over minibatch shards, fixed tree
  // reduction.
  parallelShardedSum(BN, 1, static_cast<size_t>(OutC),
                     [&](size_t B0, size_t B1, float *Acc) {
    for (size_t Bi = B0; Bi != B1; ++Bi) {
      const float *G = GD + Bi * GSz;
      for (int Oc = 0; Oc < OutC; ++Oc) {
        float Sum = 0.0f;
        const float *Row = G + Oc * PlaneSz;
        for (size_t I = 0; I != PlaneSz; ++I)
          Sum += Row[I];
        Acc[Oc] += Sum;
      }
    }
  }, GB.data());

  // Weight gradients: GW += sum_b GradOut_b * Col_b^T, accumulated into
  // per-shard buffers and tree-reduced so any thread count rounds alike.
  // Each sample runs the transposed product Col_b * GradOut_b^T
  // (M = CKK, N = OutC): the few output channels as the GEMM's N fill the
  // register tile, where the CKK columns of the direct form leave most of
  // it padding. Every element is still one k-ascending chain of the same
  // products, so the bits are unchanged; the reduced sum, held transposed,
  // is added into GW once.
  const float *GWT = parallelShardedReduce(BN, 1, W.size(),
                                           [&](size_t B0, size_t B1,
                                               float *Acc) {
    for (size_t Bi = B0; Bi != B1; ++Bi)
      sgemm(/*TransA=*/false, /*TransB=*/true, CKK, OutC, OH * OW, 1.0f,
            Cols + Bi * ColSz, OH * OW, GD + Bi * GSz, OH * OW, 1.0f, Acc,
            OutC);
  });
  for (int Oc = 0; Oc < OutC; ++Oc)
    for (int J = 0; J < CKK; ++J)
      GW[static_cast<size_t>(Oc) * CKK + J] +=
          GWT[static_cast<size_t>(J) * OutC + Oc];

  if (!NeedGradIn)
    return Tensor();
  // Input gradients: dCol_b = W^T * GradOut_b, scattered back by col2im.
  // col2im accumulates, so the workspace tensor must be zeroed explicitly.
  Tensor DCols = Workspace::acquire({BN, CKK, OH * OW});
  Tensor GradIn = Workspace::acquire(Ctx.InShape);
  GradIn.fill(0.0f);
  float *GID = GradIn.data();
  size_t InSz = GradIn.sampleSize();
  ThreadPool::global().parallelFor(0, static_cast<size_t>(BN), 1,
                                   [&](size_t B0, size_t B1) {
    for (size_t Bi = B0; Bi != B1; ++Bi) {
      float *DCol = DCols.data() + Bi * ColSz;
      sgemm(/*TransA=*/true, /*TransB=*/false, CKK, OH * OW, OutC, 1.0f,
            W.data(), CKK, GD + Bi * GSz, OH * OW, 0.0f, DCol, OH * OW);
      col2im(DCol, InC, H, Wd, K, S, GID + Bi * InSz);
    }
  });
  Workspace::release(DCols);
  return GradIn;
}

std::vector<ParamView> Conv2D::params() {
  return {{W.data(), GW.data(), W.size()}, {B.data(), GB.data(), B.size()}};
}

Conv2D::Conv2D(const Conv2D &Src, ForwardOnlyCopy)
    : Layer(Src), InC(Src.InC), OutC(Src.OutC), K(Src.K), S(Src.S), W(Src.W),
      B(Src.B) {}

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::unique_ptr<Layer>(new Conv2D(*this, ForwardOnlyCopy{}));
}

//===----------------------------------------------------------------------===//
// MaxPool2D
//===----------------------------------------------------------------------===//

Tensor MaxPool2D::forward(const Tensor &In, LayerCtx *Ctx) const {
  assert(In.rank() == 4 && "maxpool batched input must be rank 4");
  int BN = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  int OH = H / 2, OW = W / 2;
  assert(OH > 0 && OW > 0 && "maxpool input too small");
  // An inference pass reads no window codes back; they go to per-thread
  // scratch.
  static thread_local std::vector<uint8_t> Scratch;
  std::vector<uint8_t> &Window = Ctx ? Ctx->Window : Scratch;
  if (Ctx)
    Ctx->InShape = In.shape();
  Tensor Out = Workspace::acquire({BN, C, OH, OW});
  // Every code is written below, so a resize (no fill) suffices.
  Window.resize(Out.size());
  size_t InSz = In.sampleSize(), OutSz = Out.sampleSize();
  const float *InD = In.data();
  float *OutD = Out.data();
  uint8_t *Code = Window.data();
  ThreadPool::global().parallelFor(0, static_cast<size_t>(BN), 1,
                                   [&](size_t B0, size_t B1) {
    for (size_t Bi = B0; Bi != B1; ++Bi)
      maxPool2x2Kernel(InD + Bi * InSz, C, H, W, OutD + Bi * OutSz,
                       Code + Bi * OutSz);
  });
  return Out;
}

Tensor MaxPool2D::backward(const Tensor &GradOut, LayerCtx &Ctx, bool) {
  const std::vector<int> &InShape = Ctx.InShape;
  assert(InShape.size() == 4 && GradOut.size() == Ctx.Window.size() &&
         "maxpool batched gradient size mismatch");
  int BN = InShape[0], C = InShape[1], H = InShape[2], W = InShape[3];
  int OH = H / 2, OW = W / 2;
  Tensor GradIn = Workspace::acquire(InShape);
  size_t InSz = GradIn.sampleSize(), OutSz = GradOut.sampleSize();
  const float *G = GradOut.data();
  const uint8_t *Code = Ctx.Window.data();
  float *D = GradIn.data();
  // Each sample zeroes and scatters into only its own input slab, so the
  // batch-parallel scatter is race-free and deterministic.
  ThreadPool::global().parallelFor(0, static_cast<size_t>(BN), 1,
                                   [&](size_t B0, size_t B1) {
    for (size_t Bi = B0; Bi != B1; ++Bi) {
      float *Slab = D + Bi * InSz;
      std::fill(Slab, Slab + InSz, 0.0f);
      size_t I = Bi * OutSz;
      for (int Ch = 0; Ch < C; ++Ch)
        for (int Oy = 0; Oy < OH; ++Oy)
          for (int Ox = 0; Ox < OW; ++Ox, ++I) {
            int Dy = Code[I] >> 1, Dx = Code[I] & 1;
            Slab[(static_cast<size_t>(Ch) * H + Oy * 2 + Dy) * W + Ox * 2 +
                 Dx] += G[I];
          }
    }
  });
  return GradIn;
}

//===----------------------------------------------------------------------===//
// Reshape
//===----------------------------------------------------------------------===//

namespace {

/// Workspace copy of \p In with \p Y's shape (reshapes without disturbing
/// the caller's tensor, which the Network chain releases separately).
Tensor copyInto(Tensor Y, const Tensor &In) {
  assert(Y.size() == In.size() && "reshape must preserve element count");
  std::memcpy(Y.data(), In.data(), sizeof(float) * In.size());
  return Y;
}

} // namespace

Tensor Reshape::forward(const Tensor &In, LayerCtx *Ctx) const {
  if (Ctx)
    Ctx->InShape = In.shape();
  return copyInto(Workspace::acquire(In.dim(0), Target), In);
}

Tensor Reshape::backward(const Tensor &GradOut, LayerCtx &Ctx, bool) {
  return copyInto(Workspace::acquire(Ctx.InShape), GradOut);
}

//===----------------------------------------------------------------------===//
// Flatten
//===----------------------------------------------------------------------===//

Tensor Flatten::forward(const Tensor &In, LayerCtx *Ctx) const {
  if (Ctx)
    Ctx->InShape = In.shape();
  return copyInto(
      Workspace::acquire({In.dim(0), static_cast<int>(In.sampleSize())}), In);
}

Tensor Flatten::backward(const Tensor &GradOut, LayerCtx &Ctx, bool) {
  return copyInto(Workspace::acquire(Ctx.InShape), GradOut);
}
