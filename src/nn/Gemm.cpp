//===- nn/Gemm.cpp - Backend dispatch, SGEMM, and im2col kernels ---------===//

#include "nn/Gemm.h"

#include "nn/GemmSimdKernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace au;
using namespace au::nn;

//===----------------------------------------------------------------------===//
// Backend selection
//===----------------------------------------------------------------------===//

bool au::nn::simdSupported() {
#if defined(AU_NN_HAVE_SIMD) && (defined(__x86_64__) || defined(__i386__))
  static const bool Supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return Supported;
#else
  return false;
#endif
}

namespace {

Backend clampToHardware(Backend B) {
  if (B == Backend::Simd && !simdSupported())
    return Backend::Blocked;
  return B;
}

Backend readBackendFromEnv() {
  const char *Env = std::getenv("AU_NN_BACKEND");
  if (Env && std::strcmp(Env, "blocked") == 0)
    return Backend::Blocked;
  Backend Default = clampToHardware(Backend::Simd);
  if (Env && std::strcmp(Env, "simd") != 0)
    std::fprintf(stderr,
                 "AU_NN_BACKEND=%s is not recognized (accepted values: simd, "
                 "blocked); running %s\n",
                 Env, backendName(Default));
  return Default;
}

Backend ActiveBackend = defaultBackend();

// Per-thread packing scratch (the blocked engine's transposes and the simd
// engine's B panels). Packing happens on the thread issuing the GEMM (before
// any parallel region), so concurrent GEMMs from different pool workers never
// share a buffer; capacity persists, so steady-state calls do not allocate.
thread_local std::vector<float> PackABuf;
thread_local std::vector<float> PackBBuf;

/// Packs the transpose of the Rows x Cols row-major matrix \p Src (stride
/// \p Ld) into \p Dst as a Cols x Rows row-major matrix.
void packTranspose(const float *Src, int Rows, int Cols, int Ld, float *Dst) {
  for (int R = 0; R < Rows; ++R) {
    const float *SrcRow = Src + static_cast<size_t>(R) * Ld;
    for (int C = 0; C < Cols; ++C)
      Dst[static_cast<size_t>(C) * Rows + R] = SrcRow[C];
  }
}

/// Flushes a subnormal Adam moment to a zero of the same sign. A moment
/// whose gradient stays 0 decays to the smallest subnormal and sticks there
/// (0.9 * 2^-149 rounds back up), costing a microcode assist on every later
/// step; the weight step it would drive is below one ulp of the weight.
float flushSubnormal(float X) {
  return std::fabs(X) < FLT_MIN ? std::copysign(0.0f, X) : X;
}

/// Grows \p Buf without shrinking so its capacity converges on the session
/// high-water mark.
float *reserveScratch(std::vector<float> &Buf, size_t N) {
  if (Buf.size() < N)
    Buf.resize(N);
  return Buf.data();
}

} // namespace

Backend au::nn::backend() { return ActiveBackend; }

Backend au::nn::defaultBackend() {
  static const Backend Default = readBackendFromEnv();
  return Default;
}

void au::nn::setBackend(Backend B) { ActiveBackend = clampToHardware(B); }

const char *au::nn::backendName(Backend B) {
  return B == Backend::Simd ? "simd" : "blocked";
}

namespace {

/// Whether the elementwise and optimizer kernels take their vectorized simd
/// forms (active backend is simd, which setBackend clamps to the hardware).
bool simdKernelsActive() { return ActiveBackend == Backend::Simd; }

} // namespace

//===----------------------------------------------------------------------===//
// Blocked-scalar SGEMM (portable fallback)
//===----------------------------------------------------------------------===//

namespace {

/// Row-major op(A)[M][K] * op(B)[K][N] over already-normalized operands.
/// Each task owns whole rows of C, blocks over K so the touched slice of B
/// stays cache-resident, and accumulates every C element in ascending-k
/// order — bitwise identical at any thread count.
void sgemmBlockedCore(int M, int N, int K, float Alpha, const float *AP,
                      int ALd, const float *BP, int BLd, float Beta, float *C,
                      int Ldc) {
  constexpr int KBlock = 256;
  size_t FlopsPerRow = static_cast<size_t>(std::max(1, K)) * N;
  size_t Grain = std::max<size_t>(1, 32768 / FlopsPerRow);
  ThreadPool::global().parallelFor(0, static_cast<size_t>(M), Grain,
                                   [&](size_t RowB, size_t RowE) {
    for (size_t I = RowB; I != RowE; ++I) {
      float *CRow = C + I * Ldc;
      if (Beta == 0.0f)
        std::fill(CRow, CRow + N, 0.0f);
      else if (Beta != 1.0f)
        for (int J = 0; J < N; ++J)
          CRow[J] *= Beta;
    }
    for (int K0 = 0; K0 < K; K0 += KBlock) {
      int K1 = std::min(K, K0 + KBlock);
      for (size_t I = RowB; I != RowE; ++I) {
        const float *ARow = AP + I * ALd;
        float *CRow = C + I * Ldc;
        // 4-way k unroll: one pass over CRow folds in four B rows, cutting
        // C traffic 4x. The unroll boundaries depend only on (K0, K1), so
        // the summation order is identical at any thread count.
        int Kk = K0;
        for (; Kk + 3 < K1; Kk += 4) {
          float A0 = Alpha * ARow[Kk], A1 = Alpha * ARow[Kk + 1];
          float A2 = Alpha * ARow[Kk + 2], A3 = Alpha * ARow[Kk + 3];
          const float *B0 = BP + static_cast<size_t>(Kk) * BLd;
          const float *B1 = B0 + BLd, *B2 = B1 + BLd, *B3 = B2 + BLd;
          for (int J = 0; J < N; ++J)
            CRow[J] += A0 * B0[J] + A1 * B1[J] + A2 * B2[J] + A3 * B3[J];
        }
        for (; Kk < K1; ++Kk) {
          float AV = Alpha * ARow[Kk];
          if (AV == 0.0f)
            continue;
          const float *BRow = BP + static_cast<size_t>(Kk) * BLd;
          for (int J = 0; J < N; ++J)
            CRow[J] += AV * BRow[J];
        }
      }
    }
  });
}

/// Simd GEMM core over in-place op(A) and packed B panels: row panels of 6
/// are distributed across the pool; panel boundaries are a pure function of
/// M, and each C element is one k-ascending FMA chain, so results are
/// thread-count independent. BiasRow, when non-null, seeds each output row's
/// accumulators (conv forward fusion; requires Alpha == 1, Beta == 0).
void sgemmSimdCore(bool TransA, int M, int N, int K, float Alpha,
                   const float *A, int Lda, const float *BPanels, float Beta,
                   float *C, int Ldc, const float *BiasRow = nullptr) {
  size_t NPanels = static_cast<size_t>(simd::numRowPanels(M));
  size_t FlopsPerPanel =
      static_cast<size_t>(simd::MR) * std::max(1, K) * std::max(1, N);
  size_t Grain = std::max<size_t>(1, 262144 / FlopsPerPanel);
  ThreadPool::global().parallelFor(0, NPanels, Grain,
                                   [&](size_t PB, size_t PE) {
    simd::microKernelRange(static_cast<int>(PB), static_cast<int>(PE), M, N,
                           K, Alpha, A, Lda, TransA, BPanels, Beta, BiasRow,
                           C, Ldc);
  });
}

/// Scales C by Beta (the K == 0 degenerate case, where no product term
/// exists and the packed-panel kernels would be called with empty panels).
void scaleC(int M, int N, float Beta, float *C, int Ldc) {
  for (int I = 0; I < M; ++I) {
    float *CRow = C + static_cast<size_t>(I) * Ldc;
    if (Beta == 0.0f)
      std::fill(CRow, CRow + N, 0.0f);
    else if (Beta != 1.0f)
      for (int J = 0; J < N; ++J)
        CRow[J] *= Beta;
  }
}

} // namespace

void au::nn::sgemm(bool TransA, bool TransB, int M, int N, int K, float Alpha,
                   const float *A, int Lda, const float *B, int Ldb,
                   float Beta, float *C, int Ldc) {
  assert(M >= 0 && N >= 0 && K >= 0 && "negative GEMM extents");
  if (M == 0 || N == 0)
    return;
  if (K == 0) {
    scaleC(M, N, Beta, C, Ldc);
    return;
  }

  if (backend() == Backend::Simd) {
    float *BP = reserveScratch(PackBBuf, simd::bPanelsSize(K, N));
    simd::packBPanels(B, Ldb, TransB, K, N, BP);
    sgemmSimdCore(TransA, M, N, K, Alpha, A, Lda, BP, Beta, C, Ldc);
    return;
  }

  // Normalize both operands to row-major op(A)[M][K] / op(B)[K][N] so the
  // blocked kernel always streams unit-stride rows.
  const float *AP = A;
  int ALd = Lda;
  if (TransA) {
    float *Buf = reserveScratch(PackABuf, static_cast<size_t>(M) * K);
    packTranspose(A, K, M, Lda, Buf);
    AP = Buf;
    ALd = K;
  }
  const float *BP = B;
  int BLd = Ldb;
  if (TransB) {
    float *Buf = reserveScratch(PackBBuf, static_cast<size_t>(K) * N);
    packTranspose(B, N, K, Ldb, Buf);
    BP = Buf;
    BLd = N;
  }
  sgemmBlockedCore(M, N, K, Alpha, AP, ALd, BP, BLd, Beta, C, Ldc);
}

//===----------------------------------------------------------------------===//
// Pre-packed operands
//===----------------------------------------------------------------------===//

void au::nn::ensurePackedB(PackedOperand &P, uint64_t Gen, bool TransB, int K,
                           int N, const float *B, int Ldb) {
  Backend Engine = backend();
  if (P.fresh(Engine, Gen) && P.Rows == K && P.Cols == N)
    return;
  P.Rows = K;
  P.Cols = N;
  P.For = Engine;
  P.Gen = Gen;
  P.Present = true;
  if (Engine == Backend::Simd) {
    size_t Need = simd::bPanelsSize(K, N);
    if (P.Data.size() < Need)
      P.Data.resize(Need);
    simd::packBPanels(B, Ldb, TransB, K, N, P.Data.data());
    return;
  }
  size_t Need = static_cast<size_t>(K) * N;
  if (P.Data.size() < Need)
    P.Data.resize(Need);
  if (TransB)
    packTranspose(B, N, K, Ldb, P.Data.data());
  else
    for (int I = 0; I < K; ++I)
      std::memcpy(P.Data.data() + static_cast<size_t>(I) * N,
                  B + static_cast<size_t>(I) * Ldb, sizeof(float) * N);
}

void au::nn::sgemmPackedB(bool TransA, const PackedOperand &PB, int M, int N,
                          int K, float Alpha, const float *A, int Lda,
                          float Beta, float *C, int Ldc) {
  assert(PB.Present && PB.For == backend() && "stale packed operand");
  assert(PB.Rows == K && PB.Cols == N && "packed operand extent mismatch");
  if (M == 0 || N == 0)
    return;
  if (K == 0) {
    scaleC(M, N, Beta, C, Ldc);
    return;
  }
  if (PB.For == Backend::Simd) {
    sgemmSimdCore(TransA, M, N, K, Alpha, A, Lda, PB.Data.data(), Beta, C,
                  Ldc);
    return;
  }
  const float *AP = A;
  int ALd = Lda;
  if (TransA) {
    float *Buf = reserveScratch(PackABuf, static_cast<size_t>(M) * K);
    packTranspose(A, K, M, Lda, Buf);
    AP = Buf;
    ALd = K;
  }
  sgemmBlockedCore(M, N, K, Alpha, AP, ALd, PB.Data.data(), N, Beta, C, Ldc);
}

//===----------------------------------------------------------------------===//
// Elementwise kernels
//===----------------------------------------------------------------------===//

void au::nn::reluForwardKernel(float *Y, size_t N) {
  if (simdKernelsActive()) {
    simd::reluForwardAvx(Y, N);
    return;
  }
  for (size_t I = 0; I != N; ++I)
    Y[I] = Y[I] > 0.0f ? Y[I] : 0.0f;
}

void au::nn::reluBackwardKernel(float *G, const float *X, size_t N) {
  if (simdKernelsActive()) {
    simd::reluBackwardAvx(G, X, N);
    return;
  }
  for (size_t I = 0; I != N; ++I)
    if (X[I] <= 0.0f)
      G[I] = 0.0f;
}

void au::nn::maxPool2x2Kernel(const float *In, int C, int H, int W,
                              float *Out, uint8_t *Window) {
  if (simdKernelsActive()) {
    simd::maxPool2x2Avx(In, C, H, W, Out, Window);
    return;
  }
  int OH = H / 2, OW = W / 2;
  const size_t Offsets[3] = {1, static_cast<size_t>(W),
                             static_cast<size_t>(W) + 1};
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Oy = 0; Oy < OH; ++Oy)
      for (int Ox = 0; Ox < OW; ++Ox) {
        // Seeded from the first window element, not a finite sentinel, so
        // arbitrarily negative inputs pool correctly.
        const float *Win = In + (static_cast<size_t>(Ch) * H + Oy * 2) * W +
                           Ox * 2;
        float Best = Win[0];
        uint8_t Slot = 0;
        for (uint8_t J = 0; J != 3; ++J)
          if (Win[Offsets[J]] > Best) {
            Best = Win[Offsets[J]];
            Slot = J + 1;
          }
        *Out++ = Best;
        *Window++ = Slot;
      }
}

void au::nn::biasAddRowsKernel(float *Y, const float *Bias, int Rows,
                               int Cols) {
  if (simdKernelsActive()) {
    simd::biasAddRowsAvx(Y, Bias, Rows, Cols);
    return;
  }
  for (int R = 0; R < Rows; ++R)
    std::memcpy(Y + static_cast<size_t>(R) * Cols, Bias,
                sizeof(float) * Cols);
}

double au::nn::mseBatchKernel(const float *P, const float *T, float *G,
                              int Rows, int Cols) {
  if (simdKernelsActive())
    return simd::mseBatchAvx(P, T, G, Rows, Cols);
  // Blocked engine: each term is scaled by InvN before summing, in ascending
  // element order.
  double Loss = 0.0;
  double InvN = 1.0 / Cols;
  for (int R = 0; R < Rows; ++R) {
    size_t Base = static_cast<size_t>(R) * Cols;
    double RowSum = 0.0;
    for (int I = 0; I < Cols; ++I) {
      double D = static_cast<double>(P[Base + I]) - T[Base + I];
      RowSum += D * D * InvN;
      G[Base + I] = static_cast<float>(2.0 * D * InvN);
    }
    Loss += RowSum;
  }
  return Loss;
}

void au::nn::adamUpdateKernel(float *W, float *G, float *M, float *V,
                              size_t N, double Lr, double B1, double B2,
                              double Eps, double Bias1, double Bias2,
                              double Scale) {
  if (simdKernelsActive()) {
    // Fused single-precision pass: moments, bias correction, parameter
    // step, and gradient clear in one vectorized sweep.
    simd::adamUpdateAvx(W, G, M, V, N, static_cast<float>(Lr),
                        static_cast<float>(B1), static_cast<float>(B2),
                        static_cast<float>(Eps),
                        static_cast<float>(1.0 / Bias1),
                        static_cast<float>(1.0 / Bias2),
                        static_cast<float>(Scale));
    return;
  }
  // Blocked engine: double-precision arithmetic over float storage.
  for (size_t I = 0; I != N; ++I) {
    double Gd = G[I] * Scale;
    M[I] = flushSubnormal(static_cast<float>(B1 * M[I] + (1.0 - B1) * Gd));
    V[I] = flushSubnormal(
        static_cast<float>(B2 * V[I] + (1.0 - B2) * Gd * Gd));
    double MHat = M[I] / Bias1;
    double VHat = V[I] / Bias2;
    W[I] -= static_cast<float>(Lr * MHat / (std::sqrt(VHat) + Eps));
    G[I] = 0.0f;
  }
}

void au::nn::sgemmConvBias(int M, int N, int K, const float *A, int Lda,
                           const float *B, int Ldb, const float *Bias,
                           float *C, int Ldc) {
  assert(backend() == Backend::Simd && "conv bias fusion is simd-only");
  assert(M > 0 && N > 0 && K > 0 && "degenerate conv GEMM");
  float *BP = reserveScratch(PackBBuf, simd::bPanelsSize(K, N));
  simd::packBPanels(B, Ldb, /*Trans=*/false, K, N, BP);
  sgemmSimdCore(/*TransA=*/false, M, N, K, 1.0f, A, Lda, BP, 0.0f, C, Ldc,
                Bias);
}

//===----------------------------------------------------------------------===//
// im2col / col2im
//===----------------------------------------------------------------------===//

void au::nn::im2col(const float *In, int C, int H, int W, int K, int S,
                    float *Col) {
  if (simdKernelsActive()) {
    simd::im2colAvx(In, C, H, W, K, S, Col);
    return;
  }
  int OH = convOutDim(H, K, S), OW = convOutDim(W, K, S);
  assert(OH > 0 && OW > 0 && "convolution input smaller than kernel");
  size_t OutRow = static_cast<size_t>(OH) * OW;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Ky = 0; Ky < K; ++Ky)
      for (int Kx = 0; Kx < K; ++Kx) {
        float *Dst = Col + (((static_cast<size_t>(Ch) * K + Ky) * K + Kx) *
                            OutRow);
        const float *Plane =
            In + (static_cast<size_t>(Ch) * H + Ky) * W + Kx;
        for (int Oy = 0; Oy < OH; ++Oy) {
          const float *Src = Plane + static_cast<size_t>(Oy) * S * W;
          if (S == 1) {
            std::memcpy(Dst, Src, sizeof(float) * OW);
            Dst += OW;
          } else {
            for (int Ox = 0; Ox < OW; ++Ox)
              *Dst++ = Src[static_cast<size_t>(Ox) * S];
          }
        }
      }
}

void au::nn::col2im(const float *Col, int C, int H, int W, int K, int S,
                    float *In) {
  int OH = convOutDim(H, K, S), OW = convOutDim(W, K, S);
  assert(OH > 0 && OW > 0 && "convolution input smaller than kernel");
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Ky = 0; Ky < K; ++Ky)
      for (int Kx = 0; Kx < K; ++Kx) {
        const float *Src = Col + (((static_cast<size_t>(Ch) * K + Ky) * K +
                                   Kx) *
                                  OH * OW);
        float *Plane = In + (static_cast<size_t>(Ch) * H + Ky) * W + Kx;
        for (int Oy = 0; Oy < OH; ++Oy) {
          float *Dst = Plane + static_cast<size_t>(Oy) * S * W;
          for (int Ox = 0; Ox < OW; ++Ox)
            Dst[static_cast<size_t>(Ox) * S] += *Src++;
        }
      }
}
