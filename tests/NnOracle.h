//===- tests/NnOracle.h - Direct-formula reference layers -------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle the compute engines are tested against: Dense,
/// Conv2D and 2x2 MaxPool2D written straight from their defining formulas,
/// one sample at a time, accumulating in double. It reads a layer's
/// parameters through weights()/biases() and shares no code with the
/// engines (no GEMM, no im2col, no packing), so an engine bug cannot hide
/// in both.
///
/// runDense/runConv/runMaxPool take a batched input and output gradient
/// (leading dimension = batch) and return what one forward followed by one
/// backward must produce: the outputs, the input gradients, and
/// the parameter gradients summed over the batch (weights then biases, the
/// layer's params() order).
///
//===----------------------------------------------------------------------===//

#ifndef AU_TESTS_NNORACLE_H
#define AU_TESTS_NNORACLE_H

#include "nn/Layers.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace au {
namespace nn {
namespace oracle {

/// What one forward + backward pair must produce.
struct Reference {
  std::vector<float> Out;        ///< Forward outputs, batch-major.
  std::vector<float> GradIn;     ///< Input gradients, batch-major.
  std::vector<float> ParamGrads; ///< Weight then bias gradients.
};

//===----------------------------------------------------------------------===//
// Single-sample formulas
//===----------------------------------------------------------------------===//

/// Dense forward: Y[o] = B[o] + sum_i W[o][i] * X[i].
inline void denseForward(const std::vector<float> &W,
                         const std::vector<float> &B, int In, int Out,
                         const float *X, float *Y) {
  for (int O = 0; O < Out; ++O) {
    double Acc = B[O];
    for (int I = 0; I < In; ++I)
      Acc += static_cast<double>(W[static_cast<size_t>(O) * In + I]) * X[I];
    Y[O] = static_cast<float>(Acc);
  }
}

/// Dense backward: GX[i] = sum_o G[o] * W[o][i]; adds G[o] * X[i] to
/// GW[o][i] and G[o] to GB[o].
inline void denseBackward(const std::vector<float> &W, int In, int Out,
                          const float *X, const float *G, float *GX,
                          std::vector<double> &GW, std::vector<double> &GB) {
  for (int I = 0; I < In; ++I) {
    double Acc = 0.0;
    for (int O = 0; O < Out; ++O)
      Acc += static_cast<double>(G[O]) * W[static_cast<size_t>(O) * In + I];
    GX[I] = static_cast<float>(Acc);
  }
  for (int O = 0; O < Out; ++O) {
    GB[O] += G[O];
    for (int I = 0; I < In; ++I)
      GW[static_cast<size_t>(O) * In + I] += static_cast<double>(G[O]) * X[I];
  }
}

/// Valid convolution of one (C, H, W) sample with stride S:
/// Y[oc][oy][ox] = B[oc] + sum_{ic,ky,kx} W[oc][ic][ky][kx] *
///                 X[ic][oy*S + ky][ox*S + kx].
inline void convForward(const std::vector<float> &W,
                        const std::vector<float> &B, int InC, int OutC, int K,
                        int S, int H, int Wd, const float *X, float *Y) {
  int OH = (H - K) / S + 1, OW = (Wd - K) / S + 1;
  for (int Oc = 0; Oc < OutC; ++Oc)
    for (int Oy = 0; Oy < OH; ++Oy)
      for (int Ox = 0; Ox < OW; ++Ox) {
        double Acc = B[Oc];
        for (int Ic = 0; Ic < InC; ++Ic)
          for (int Ky = 0; Ky < K; ++Ky)
            for (int Kx = 0; Kx < K; ++Kx)
              Acc += static_cast<double>(
                         W[((static_cast<size_t>(Oc) * InC + Ic) * K + Ky) *
                               K + Kx]) *
                     X[(static_cast<size_t>(Ic) * H + Oy * S + Ky) * Wd +
                       Ox * S + Kx];
        Y[(static_cast<size_t>(Oc) * OH + Oy) * OW + Ox] =
            static_cast<float>(Acc);
      }
}

/// Convolution backward for one sample: every output gradient G[oc][oy][ox]
/// adds G * W to the input gradient at each tap, G * X to the tap's weight
/// gradient, and G to B[oc]'s gradient.
inline void convBackward(const std::vector<float> &W, int InC, int OutC,
                         int K, int S, int H, int Wd, const float *X,
                         const float *G, float *GX, std::vector<double> &GW,
                         std::vector<double> &GB) {
  int OH = (H - K) / S + 1, OW = (Wd - K) / S + 1;
  std::vector<double> Acc(static_cast<size_t>(InC) * H * Wd, 0.0);
  for (int Oc = 0; Oc < OutC; ++Oc)
    for (int Oy = 0; Oy < OH; ++Oy)
      for (int Ox = 0; Ox < OW; ++Ox) {
        double Gv = G[(static_cast<size_t>(Oc) * OH + Oy) * OW + Ox];
        GB[Oc] += Gv;
        for (int Ic = 0; Ic < InC; ++Ic)
          for (int Ky = 0; Ky < K; ++Ky)
            for (int Kx = 0; Kx < K; ++Kx) {
              size_t WIdx =
                  ((static_cast<size_t>(Oc) * InC + Ic) * K + Ky) * K + Kx;
              size_t XIdx =
                  (static_cast<size_t>(Ic) * H + Oy * S + Ky) * Wd + Ox * S +
                  Kx;
              GW[WIdx] += Gv * X[XIdx];
              Acc[XIdx] += Gv * W[WIdx];
            }
      }
  for (size_t I = 0; I != Acc.size(); ++I)
    GX[I] = static_cast<float>(Acc[I]);
}

/// Flat index, within one (C, H, W) sample, of the maximum of the 2x2 window
/// at output (c, oy, ox); ties go to the first element in row-major window
/// order.
inline size_t maxPoolArgMax(const float *X, int H, int Wd, int C, int Oy,
                            int Ox) {
  size_t Best = (static_cast<size_t>(C) * H + 2 * Oy) * Wd + 2 * Ox;
  for (int Dy = 0; Dy < 2; ++Dy)
    for (int Dx = 0; Dx < 2; ++Dx) {
      size_t Idx = (static_cast<size_t>(C) * H + 2 * Oy + Dy) * Wd + 2 * Ox +
                   Dx;
      if (X[Idx] > X[Best])
        Best = Idx;
    }
  return Best;
}

/// 2x2/stride-2 max pooling of one (C, H, W) sample; odd trailing rows and
/// columns are dropped.
inline void maxPoolForward(int C, int H, int Wd, const float *X, float *Y) {
  int OH = H / 2, OW = Wd / 2;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Oy = 0; Oy < OH; ++Oy)
      for (int Ox = 0; Ox < OW; ++Ox)
        Y[(static_cast<size_t>(Ch) * OH + Oy) * OW + Ox] =
            X[maxPoolArgMax(X, H, Wd, Ch, Oy, Ox)];
}

/// Max-pool backward for one sample: each output gradient goes to its
/// window's maximum; every other input gets zero.
inline void maxPoolBackward(int C, int H, int Wd, const float *X,
                            const float *G, float *GX) {
  int OH = H / 2, OW = Wd / 2;
  std::fill(GX, GX + static_cast<size_t>(C) * H * Wd, 0.0f);
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Oy = 0; Oy < OH; ++Oy)
      for (int Ox = 0; Ox < OW; ++Ox)
        GX[maxPoolArgMax(X, H, Wd, Ch, Oy, Ox)] +=
            G[(static_cast<size_t>(Ch) * OH + Oy) * OW + Ox];
}

//===----------------------------------------------------------------------===//
// Batches, one sample at a time
//===----------------------------------------------------------------------===//

inline std::vector<float> flatten(const std::vector<double> &GW,
                                  const std::vector<double> &GB) {
  std::vector<float> Out(GW.begin(), GW.end());
  Out.insert(Out.end(), GB.begin(), GB.end());
  return Out;
}

/// Dense over \p In [Batch, In] and \p GradOut [Batch, Out].
inline Reference runDense(Dense &L, const Tensor &In, const Tensor &GradOut) {
  int BN = In.dim(0), NI = L.inSize(), NO = L.outSize();
  assert(In.dim(1) == NI && GradOut.dim(1) == NO && "dense shape mismatch");
  const std::vector<float> &W = L.weights(), &B = L.biases();
  Reference R;
  R.Out.resize(static_cast<size_t>(BN) * NO);
  R.GradIn.resize(static_cast<size_t>(BN) * NI);
  std::vector<double> GW(W.size(), 0.0), GB(B.size(), 0.0);
  for (int S = 0; S < BN; ++S) {
    denseForward(W, B, NI, NO, In.sampleData(S), &R.Out[S * NO]);
    denseBackward(W, NI, NO, In.sampleData(S), GradOut.sampleData(S),
                  &R.GradIn[S * NI], GW, GB);
  }
  R.ParamGrads = flatten(GW, GB);
  return R;
}

/// Conv2D over \p In [Batch, InC, H, W] and \p GradOut [Batch, OutC, OH, OW].
inline Reference runConv(Conv2D &L, const Tensor &In, const Tensor &GradOut) {
  int BN = In.dim(0), H = In.dim(2), Wd = In.dim(3);
  int InC = L.inChannels(), OutC = L.outChannels(), K = L.kernelSize(),
      S = L.stride();
  assert(In.dim(1) == InC && GradOut.dim(1) == OutC && "conv shape mismatch");
  const std::vector<float> &W = L.weights(), &B = L.biases();
  size_t InSz = In.sampleSize(), OutSz = GradOut.sampleSize();
  Reference R;
  R.Out.resize(BN * OutSz);
  R.GradIn.resize(BN * InSz);
  std::vector<double> GW(W.size(), 0.0), GB(B.size(), 0.0);
  for (int Smp = 0; Smp < BN; ++Smp) {
    convForward(W, B, InC, OutC, K, S, H, Wd, In.sampleData(Smp),
                &R.Out[Smp * OutSz]);
    convBackward(W, InC, OutC, K, S, H, Wd, In.sampleData(Smp),
                 GradOut.sampleData(Smp), &R.GradIn[Smp * InSz], GW, GB);
  }
  R.ParamGrads = flatten(GW, GB);
  return R;
}

/// MaxPool2D over \p In [Batch, C, H, W] and \p GradOut [Batch, C, H/2, W/2].
inline Reference runMaxPool(const Tensor &In, const Tensor &GradOut) {
  int BN = In.dim(0), C = In.dim(1), H = In.dim(2), Wd = In.dim(3);
  size_t InSz = In.sampleSize(), OutSz = GradOut.sampleSize();
  Reference R;
  R.Out.resize(BN * OutSz);
  R.GradIn.resize(BN * InSz);
  for (int S = 0; S < BN; ++S) {
    maxPoolForward(C, H, Wd, In.sampleData(S), &R.Out[S * OutSz]);
    maxPoolBackward(C, H, Wd, In.sampleData(S), GradOut.sampleData(S),
                    &R.GradIn[S * InSz]);
  }
  return R;
}

} // namespace oracle
} // namespace nn
} // namespace au

#endif // AU_TESTS_NNORACLE_H
