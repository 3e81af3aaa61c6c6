//===- nn/GemmSimd.cpp - AVX2/FMA kernel bodies ---------------------------===//
//
// This translation unit is compiled with -mavx2 -mfma (see src/nn/CMakeLists)
// while the rest of the library stays at the baseline architecture. The
// dispatcher in Gemm.cpp only calls in here after simdSupported() confirmed
// the CPU at runtime, so no AVX2 instruction can reach an unsupported core.
//
// The SGEMM micro-kernel computes a 6x16 register tile: 12 ymm accumulators
// (6 rows x two 8-lane vectors) fed by one broadcast per A element and two
// FMAs, the classic BLIS-style inner loop. A is broadcast straight from the
// stored matrix through a row stride and a k stride; only B is packed. Each
// C element is produced by a single k-ascending FMA chain, so results do not
// depend on how row panels are scheduled across threads.
//
//===----------------------------------------------------------------------===//

#include "nn/Gemm.h"
#include "nn/GemmSimdKernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <immintrin.h>

using namespace au;
using namespace au::nn;
using namespace au::nn::simd;

namespace {

/// Mask with the first \p N of 8 lanes enabled (0 < N < 8).
inline __m256i tailMask(int N) {
  alignas(32) static const int Bits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bits + 8 - N));
}

/// Flushes a subnormal Adam moment to a zero of the same sign (see
/// adamUpdateKernel in Gemm.cpp). Gemm.cpp keeps its own copy: an inline
/// function shared with this -mavx2 file could link AVX code into the
/// baseline path.
inline float flushSubnormal(float X) {
  return std::fabs(X) < FLT_MIN ? std::copysign(0.0f, X) : X;
}

/// Writes one 8-lane group of C: C = Alpha * Acc + Beta * C over the first
/// \p Count lanes. Beta == 0 must not read C (it may be uninitialized).
inline void storeGroup(float *Dst, __m256 Acc, int Count, __m256 AlphaV,
                       float Beta, __m256 BetaV) {
  if (Count >= 8) {
    __m256 R = Beta == 0.0f
                   ? _mm256_mul_ps(AlphaV, Acc)
                   : _mm256_fmadd_ps(BetaV, _mm256_loadu_ps(Dst),
                                     _mm256_mul_ps(AlphaV, Acc));
    _mm256_storeu_ps(Dst, R);
    return;
  }
  if (Count <= 0)
    return;
  __m256i Msk = tailMask(Count);
  __m256 R = Beta == 0.0f
                 ? _mm256_mul_ps(AlphaV, Acc)
                 : _mm256_fmadd_ps(BetaV, _mm256_maskload_ps(Dst, Msk),
                                   _mm256_mul_ps(AlphaV, Acc));
  _mm256_maskstore_ps(Dst, Msk, R);
}

/// One R x 16 register tile: rows [RowBase, RowBase + R) of C against one
/// B panel. \p ARow points at op(A)[RowBase][0] in the stored matrix;
/// op(A)[RowBase + r][k] is ARow[r * Rs + k * Ks]. R is a compile-time
/// constant and every accumulator is an individually named __m256 guarded
/// by if constexpr — an Acc[R] array here makes GCC spill the whole tile to
/// the stack on every k iteration, roughly halving throughput. A non-null
/// \p BiasRow seeds each row's accumulators with BiasRow[row] (requires
/// Alpha == 1, Beta == 0), fusing the conv bias fill into the GEMM.
template <int R>
void panelTile(const float *ARow, size_t Rs, size_t Ks, const float *BPan,
               int RowBase, int J0, int Cols, int K, __m256 AlphaV,
               float Beta, __m256 BetaV, const float *BiasRow, float *C,
               int Ldc) {
  static_assert(R >= 1 && R <= MR, "row count exceeds the register tile");
  {
    __m256 Z = _mm256_setzero_ps();
    __m256 Acc00 = Z, Acc01 = Z, Acc10 = Z, Acc11 = Z, Acc20 = Z, Acc21 = Z,
           Acc30 = Z, Acc31 = Z, Acc40 = Z, Acc41 = Z, Acc50 = Z, Acc51 = Z;
    if (BiasRow) {
      Acc00 = Acc01 = _mm256_set1_ps(BiasRow[RowBase]);
      if constexpr (R > 1)
        Acc10 = Acc11 = _mm256_set1_ps(BiasRow[RowBase + 1]);
      if constexpr (R > 2)
        Acc20 = Acc21 = _mm256_set1_ps(BiasRow[RowBase + 2]);
      if constexpr (R > 3)
        Acc30 = Acc31 = _mm256_set1_ps(BiasRow[RowBase + 3]);
      if constexpr (R > 4)
        Acc40 = Acc41 = _mm256_set1_ps(BiasRow[RowBase + 4]);
      if constexpr (R > 5)
        Acc50 = Acc51 = _mm256_set1_ps(BiasRow[RowBase + 5]);
    }
    const float *AK = ARow;
    const float *BK = BPan;
    for (int Kk = 0; Kk < K; ++Kk, AK += Ks, BK += NR) {
      __m256 B0 = _mm256_loadu_ps(BK);
      __m256 B1 = _mm256_loadu_ps(BK + 8);
      __m256 A = _mm256_broadcast_ss(AK);
      Acc00 = _mm256_fmadd_ps(A, B0, Acc00);
      Acc01 = _mm256_fmadd_ps(A, B1, Acc01);
      if constexpr (R > 1) {
        A = _mm256_broadcast_ss(AK + Rs);
        Acc10 = _mm256_fmadd_ps(A, B0, Acc10);
        Acc11 = _mm256_fmadd_ps(A, B1, Acc11);
      }
      if constexpr (R > 2) {
        A = _mm256_broadcast_ss(AK + 2 * Rs);
        Acc20 = _mm256_fmadd_ps(A, B0, Acc20);
        Acc21 = _mm256_fmadd_ps(A, B1, Acc21);
      }
      if constexpr (R > 3) {
        A = _mm256_broadcast_ss(AK + 3 * Rs);
        Acc30 = _mm256_fmadd_ps(A, B0, Acc30);
        Acc31 = _mm256_fmadd_ps(A, B1, Acc31);
      }
      if constexpr (R > 4) {
        A = _mm256_broadcast_ss(AK + 4 * Rs);
        Acc40 = _mm256_fmadd_ps(A, B0, Acc40);
        Acc41 = _mm256_fmadd_ps(A, B1, Acc41);
      }
      if constexpr (R > 5) {
        A = _mm256_broadcast_ss(AK + 5 * Rs);
        Acc50 = _mm256_fmadd_ps(A, B0, Acc50);
        Acc51 = _mm256_fmadd_ps(A, B1, Acc51);
      }
    }
    float *CRow = C + static_cast<size_t>(RowBase) * Ldc + J0;
    storeGroup(CRow, Acc00, Cols, AlphaV, Beta, BetaV);
    storeGroup(CRow + 8, Acc01, Cols - 8, AlphaV, Beta, BetaV);
    if constexpr (R > 1) {
      CRow += Ldc;
      storeGroup(CRow, Acc10, Cols, AlphaV, Beta, BetaV);
      storeGroup(CRow + 8, Acc11, Cols - 8, AlphaV, Beta, BetaV);
    }
    if constexpr (R > 2) {
      CRow += Ldc;
      storeGroup(CRow, Acc20, Cols, AlphaV, Beta, BetaV);
      storeGroup(CRow + 8, Acc21, Cols - 8, AlphaV, Beta, BetaV);
    }
    if constexpr (R > 3) {
      CRow += Ldc;
      storeGroup(CRow, Acc30, Cols, AlphaV, Beta, BetaV);
      storeGroup(CRow + 8, Acc31, Cols - 8, AlphaV, Beta, BetaV);
    }
    if constexpr (R > 4) {
      CRow += Ldc;
      storeGroup(CRow, Acc40, Cols, AlphaV, Beta, BetaV);
      storeGroup(CRow + 8, Acc41, Cols - 8, AlphaV, Beta, BetaV);
    }
    if constexpr (R > 5) {
      CRow += Ldc;
      storeGroup(CRow, Acc50, Cols, AlphaV, Beta, BetaV);
      storeGroup(CRow + 8, Acc51, Cols - 8, AlphaV, Beta, BetaV);
    }
  }
}

/// Half-width variant of panelTile for a trailing B panel with at most 8
/// live columns: only the low 8-lane group is loaded, accumulated, and
/// stored, halving the FMA work the zero-padded lanes would otherwise burn.
/// Live lanes see the identical k-ascending chain, so results are unchanged.
template <int R>
void panelTileHalf(const float *ARow, size_t Rs, size_t Ks,
                   const float *BPan, int RowBase, int J0, int Cols, int K,
                   __m256 AlphaV, float Beta, __m256 BetaV,
                   const float *BiasRow, float *C, int Ldc) {
  static_assert(R >= 1 && R <= MR, "row count exceeds the register tile");
  __m256 Z = _mm256_setzero_ps();
  __m256 Acc0 = Z, Acc1 = Z, Acc2 = Z, Acc3 = Z, Acc4 = Z, Acc5 = Z;
  if (BiasRow) {
    Acc0 = _mm256_set1_ps(BiasRow[RowBase]);
    if constexpr (R > 1)
      Acc1 = _mm256_set1_ps(BiasRow[RowBase + 1]);
    if constexpr (R > 2)
      Acc2 = _mm256_set1_ps(BiasRow[RowBase + 2]);
    if constexpr (R > 3)
      Acc3 = _mm256_set1_ps(BiasRow[RowBase + 3]);
    if constexpr (R > 4)
      Acc4 = _mm256_set1_ps(BiasRow[RowBase + 4]);
    if constexpr (R > 5)
      Acc5 = _mm256_set1_ps(BiasRow[RowBase + 5]);
  }
  const float *AK = ARow;
  const float *BK = BPan;
  for (int Kk = 0; Kk < K; ++Kk, AK += Ks, BK += NR) {
    __m256 B0 = _mm256_loadu_ps(BK);
    Acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(AK), B0, Acc0);
    if constexpr (R > 1)
      Acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(AK + Rs), B0, Acc1);
    if constexpr (R > 2)
      Acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(AK + 2 * Rs), B0, Acc2);
    if constexpr (R > 3)
      Acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(AK + 3 * Rs), B0, Acc3);
    if constexpr (R > 4)
      Acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(AK + 4 * Rs), B0, Acc4);
    if constexpr (R > 5)
      Acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(AK + 5 * Rs), B0, Acc5);
  }
  float *CRow = C + static_cast<size_t>(RowBase) * Ldc + J0;
  storeGroup(CRow, Acc0, Cols, AlphaV, Beta, BetaV);
  if constexpr (R > 1) {
    CRow += Ldc;
    storeGroup(CRow, Acc1, Cols, AlphaV, Beta, BetaV);
  }
  if constexpr (R > 2) {
    CRow += Ldc;
    storeGroup(CRow, Acc2, Cols, AlphaV, Beta, BetaV);
  }
  if constexpr (R > 3) {
    CRow += Ldc;
    storeGroup(CRow, Acc3, Cols, AlphaV, Beta, BetaV);
  }
  if constexpr (R > 4) {
    CRow += Ldc;
    storeGroup(CRow, Acc4, Cols, AlphaV, Beta, BetaV);
  }
  if constexpr (R > 5) {
    CRow += Ldc;
    storeGroup(CRow, Acc5, Cols, AlphaV, Beta, BetaV);
  }
}

/// Dispatches one register tile at compile-time row count \p R, taking the
/// half-width path when the panel has at most 8 live columns.
template <int R>
inline void panelTileDispatch(const float *ARow, size_t Rs, size_t Ks,
                              const float *BPan, int RowBase, int J0,
                              int Cols, int K, __m256 AlphaV, float Beta,
                              __m256 BetaV, const float *BiasRow, float *C,
                              int Ldc) {
  if (Cols <= 8)
    panelTileHalf<R>(ARow, Rs, Ks, BPan, RowBase, J0, Cols, K, AlphaV, Beta,
                     BetaV, BiasRow, C, Ldc);
  else
    panelTile<R>(ARow, Rs, Ks, BPan, RowBase, J0, Cols, K, AlphaV, Beta,
                 BetaV, BiasRow, C, Ldc);
}

} // namespace

void simd::packBPanels(const float *B, int Ldb, bool Trans, int K, int N,
                       float *Dst) {
  const int NPanels = numBPanels(N);
  for (int Q = 0; Q < NPanels; ++Q) {
    int Col0 = Q * NR;
    int Live = N - Col0 < NR ? N - Col0 : NR;
    float *Pan = Dst + static_cast<size_t>(Q) * K * NR;
    if (Live < NR)
      std::memset(Pan, 0, static_cast<size_t>(K) * NR * sizeof(float));
    if (Trans) {
      // op(B)(k, j) = B[j * Ldb + k]: gather one stored row per column.
      for (int J = 0; J < Live; ++J) {
        const float *Src = B + static_cast<size_t>(Col0 + J) * Ldb;
        float *Out = Pan + J;
        for (int Kk = 0; Kk < K; ++Kk)
          Out[static_cast<size_t>(Kk) * NR] = Src[Kk];
      }
    } else {
      for (int Kk = 0; Kk < K; ++Kk) {
        const float *Src = B + static_cast<size_t>(Kk) * Ldb + Col0;
        float *Out = Pan + static_cast<size_t>(Kk) * NR;
        for (int J = 0; J < Live; ++J)
          Out[J] = Src[J];
      }
    }
  }
}

void simd::microKernelRange(int PanelBegin, int PanelEnd, int M, int N, int K,
                            float Alpha, const float *A, int Lda, bool TransA,
                            const float *BPanels, float Beta,
                            const float *BiasRow, float *C, int Ldc) {
  assert((!BiasRow || (Alpha == 1.0f && Beta == 0.0f)) &&
         "bias fusion requires a plain C = A*B + bias store");
  const int NPanels = numBPanels(N);
  const __m256 AlphaV = _mm256_set1_ps(Alpha);
  const __m256 BetaV = _mm256_set1_ps(Beta);
  // op(A)[i][k] sits at A[i * Rs + k * Ks] in the stored matrix.
  const size_t Rs = TransA ? 1 : static_cast<size_t>(Lda);
  const size_t Ks = TransA ? static_cast<size_t>(Lda) : 1;
  // B panels on the outside: one K x 16 panel stays L1-resident while every
  // row panel of this thread's range streams past it. The full B panel set
  // can exceed L1 (e.g. 50KB for the CNN stage-2 conv), so the P-outer order
  // would re-stream it once per row panel. Tile order does not change
  // results: each C element is still one k-ascending FMA chain.
  for (int Q = 0; Q < NPanels; ++Q) {
    const float *BPan = BPanels + static_cast<size_t>(Q) * K * NR;
    const int J0 = Q * NR;
    const int Cols = N - J0; // >= 1; may exceed NR on interior panels.
    for (int P = PanelBegin; P < PanelEnd; ++P) {
      int Row0 = P * MR;
      const float *ARow = A + static_cast<size_t>(Row0) * Rs;
      int Live = M - Row0 < MR ? M - Row0 : MR;
      switch (Live) {
      case 1:
        panelTileDispatch<1>(ARow, Rs, Ks, BPan, Row0, J0, Cols, K, AlphaV,
                             Beta, BetaV, BiasRow, C, Ldc);
        break;
      case 2:
        panelTileDispatch<2>(ARow, Rs, Ks, BPan, Row0, J0, Cols, K, AlphaV,
                             Beta, BetaV, BiasRow, C, Ldc);
        break;
      case 3:
        panelTileDispatch<3>(ARow, Rs, Ks, BPan, Row0, J0, Cols, K, AlphaV,
                             Beta, BetaV, BiasRow, C, Ldc);
        break;
      case 4:
        panelTileDispatch<4>(ARow, Rs, Ks, BPan, Row0, J0, Cols, K, AlphaV,
                             Beta, BetaV, BiasRow, C, Ldc);
        break;
      case 5:
        panelTileDispatch<5>(ARow, Rs, Ks, BPan, Row0, J0, Cols, K, AlphaV,
                             Beta, BetaV, BiasRow, C, Ldc);
        break;
      default:
        panelTileDispatch<6>(ARow, Rs, Ks, BPan, Row0, J0, Cols, K, AlphaV,
                             Beta, BetaV, BiasRow, C, Ldc);
        break;
      }
    }
  }
}

namespace {

/// Copies \p N floats with overlapping unaligned vectors instead of memcpy:
/// the im2col row runs are ~OW floats, short enough that libc's dispatch
/// costs more than the copy. Overlapping the tail store rewrites bytes with
/// the same values, which is safe.
inline void copyRun(float *Dst, const float *Src, int N) {
  if (N >= 8) {
    int I = 0;
    for (; I + 8 <= N; I += 8)
      _mm256_storeu_ps(Dst + I, _mm256_loadu_ps(Src + I));
    if (I != N)
      _mm256_storeu_ps(Dst + N - 8, _mm256_loadu_ps(Src + N - 8));
    return;
  }
  if (N >= 4) {
    _mm_storeu_ps(Dst, _mm_loadu_ps(Src));
    if (N != 4)
      _mm_storeu_ps(Dst + N - 4, _mm_loadu_ps(Src + N - 4));
    return;
  }
  for (int I = 0; I < N; ++I)
    Dst[I] = Src[I];
}

} // namespace

void simd::im2colAvx(const float *In, int C, int H, int W, int K, int S,
                     float *Col) {
  int OH = convOutDim(H, K, S), OW = convOutDim(W, K, S);
  assert(OH > 0 && OW > 0 && "convolution input smaller than kernel");
  size_t OutRow = static_cast<size_t>(OH) * OW;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Ky = 0; Ky < K; ++Ky)
      for (int Kx = 0; Kx < K; ++Kx) {
        float *Dst =
            Col + (((static_cast<size_t>(Ch) * K + Ky) * K + Kx) * OutRow);
        const float *Plane =
            In + (static_cast<size_t>(Ch) * H + Ky) * W + Kx;
        for (int Oy = 0; Oy < OH; ++Oy) {
          const float *Src = Plane + static_cast<size_t>(Oy) * S * W;
          if (S == 1) {
            copyRun(Dst, Src, OW);
            Dst += OW;
          } else {
            for (int Ox = 0; Ox < OW; ++Ox)
              *Dst++ = Src[static_cast<size_t>(Ox) * S];
          }
        }
      }
}

//===----------------------------------------------------------------------===//
// Elementwise kernels
//===----------------------------------------------------------------------===//

void simd::reluForwardAvx(float *Y, size_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Y + I, _mm256_max_ps(_mm256_loadu_ps(Y + I), Zero));
  for (; I < N; ++I)
    Y[I] = Y[I] > 0.0f ? Y[I] : 0.0f;
}

void simd::reluBackwardAvx(float *G, const float *X, size_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Mask = _mm256_cmp_ps(_mm256_loadu_ps(X + I), Zero, _CMP_GT_OQ);
    _mm256_storeu_ps(G + I, _mm256_and_ps(_mm256_loadu_ps(G + I), Mask));
  }
  for (; I < N; ++I)
    if (X[I] <= 0.0f)
      G[I] = 0.0f;
}

namespace {

// 2x2 max pooling, one output row at a time. R0 and R1 point at the two
// input rows of the outputs' first window. A window's four elements are
// visited in the scalar order (0,0), (0,1), (1,0), (1,1), and each later
// one replaces the running best only where it compares strictly greater
// (ordered, so a NaN never replaces and a tie keeps the earlier element):
// the blends reproduce the scalar branches lane by lane.

/// One window, the scalar form (rows narrower than four outputs).
inline void poolWindow(const float *R0, const float *R1, float *Out,
                       uint8_t *Window) {
  const float V[4] = {R0[0], R0[1], R1[0], R1[1]};
  float Best = V[0];
  uint8_t Slot = 0;
  for (uint8_t J = 1; J != 4; ++J)
    if (V[J] > Best) {
      Best = V[J];
      Slot = J;
    }
  *Out = Best;
  *Window = Slot;
}

/// Four adjacent windows with SSE: _mm_shuffle_ps splits each 8-float row
/// run into its even (left) and odd (right) columns.
inline void poolWindows4(const float *R0, const float *R1, float *Out,
                         uint8_t *Window) {
  __m128 A0 = _mm_loadu_ps(R0), A1 = _mm_loadu_ps(R0 + 4);
  __m128 B0 = _mm_loadu_ps(R1), B1 = _mm_loadu_ps(R1 + 4);
  __m128 Best = _mm_shuffle_ps(A0, A1, _MM_SHUFFLE(2, 0, 2, 0));
  __m128i Slot = _mm_setzero_si128();
  const __m128 Cand[3] = {_mm_shuffle_ps(A0, A1, _MM_SHUFFLE(3, 1, 3, 1)),
                          _mm_shuffle_ps(B0, B1, _MM_SHUFFLE(2, 0, 2, 0)),
                          _mm_shuffle_ps(B0, B1, _MM_SHUFFLE(3, 1, 3, 1))};
  for (int J = 0; J != 3; ++J) {
    __m128 Gt = _mm_cmp_ps(Cand[J], Best, _CMP_GT_OQ);
    Best = _mm_blendv_ps(Best, Cand[J], Gt);
    Slot = _mm_blendv_epi8(Slot, _mm_set1_epi32(J + 1), _mm_castps_si128(Gt));
  }
  _mm_storeu_ps(Out, Best);
  __m128i Words = _mm_packs_epi32(Slot, Slot);
  int32_t Packed = _mm_cvtsi128_si32(_mm_packus_epi16(Words, Words));
  std::memcpy(Window, &Packed, 4);
}

/// Eight adjacent windows with AVX. _mm256_shuffle_ps works within 128-bit
/// halves, so the split leaves the windows in the order 0 1 4 5 2 3 6 7;
/// one 64-bit permute restores it on the results.
inline void poolWindows8(const float *R0, const float *R1, float *Out,
                         uint8_t *Window) {
  __m256 A0 = _mm256_loadu_ps(R0), A1 = _mm256_loadu_ps(R0 + 8);
  __m256 B0 = _mm256_loadu_ps(R1), B1 = _mm256_loadu_ps(R1 + 8);
  __m256 Best = _mm256_shuffle_ps(A0, A1, _MM_SHUFFLE(2, 0, 2, 0));
  __m256i Slot = _mm256_setzero_si256();
  const __m256 Cand[3] = {
      _mm256_shuffle_ps(A0, A1, _MM_SHUFFLE(3, 1, 3, 1)),
      _mm256_shuffle_ps(B0, B1, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm256_shuffle_ps(B0, B1, _MM_SHUFFLE(3, 1, 3, 1))};
  for (int J = 0; J != 3; ++J) {
    __m256 Gt = _mm256_cmp_ps(Cand[J], Best, _CMP_GT_OQ);
    Best = _mm256_blendv_ps(Best, Cand[J], Gt);
    Slot = _mm256_blendv_epi8(Slot, _mm256_set1_epi32(J + 1),
                              _mm256_castps_si256(Gt));
  }
  constexpr int Order = _MM_SHUFFLE(3, 1, 2, 0);
  Best = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(Best), Order));
  Slot = _mm256_permute4x64_epi64(Slot, Order);
  _mm256_storeu_ps(Out, Best);
  __m128i Words = _mm_packs_epi32(_mm256_castsi256_si128(Slot),
                                  _mm256_extracti128_si256(Slot, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i *>(Window),
                   _mm_packus_epi16(Words, Words));
}

} // namespace

void simd::maxPool2x2Avx(const float *In, int C, int H, int W, float *Out,
                         uint8_t *Window) {
  const int OH = H / 2, OW = W / 2;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Oy = 0; Oy < OH; ++Oy) {
      const float *R0 = In + (static_cast<size_t>(Ch) * H + Oy * 2) * W;
      const float *R1 = R0 + W;
      // Full vectors, then one more vector ending at the last output when
      // the row leaves a tail: it recomputes a few outputs already written,
      // with the same values (as copyRun overlaps its tail store).
      if (OW >= 8) {
        int X = 0;
        for (; X + 8 <= OW; X += 8)
          poolWindows8(R0 + 2 * X, R1 + 2 * X, Out + X, Window + X);
        if (X != OW)
          poolWindows8(R0 + 2 * (OW - 8), R1 + 2 * (OW - 8), Out + OW - 8,
                       Window + OW - 8);
      } else if (OW >= 4) {
        poolWindows4(R0, R1, Out, Window);
        if (OW != 4)
          poolWindows4(R0 + 2 * (OW - 4), R1 + 2 * (OW - 4), Out + OW - 4,
                       Window + OW - 4);
      } else {
        for (int X = 0; X < OW; ++X)
          poolWindow(R0 + 2 * X, R1 + 2 * X, Out + X, Window + X);
      }
      Out += OW;
      Window += OW;
    }
}

void simd::biasAddRowsAvx(float *Y, const float *Bias, int Rows, int Cols) {
  for (int R = 0; R < Rows; ++R)
    std::memcpy(Y + static_cast<size_t>(R) * Cols, Bias,
                static_cast<size_t>(Cols) * sizeof(float));
}

double simd::mseBatchAvx(const float *P, const float *T, float *G, int Rows,
                         int Cols) {
  const float InvN = 1.0f / static_cast<float>(Cols);
  const __m256 Scale = _mm256_set1_ps(2.0f * InvN);
  double Loss = 0.0;
  for (int R = 0; R < Rows; ++R) {
    size_t Base = static_cast<size_t>(R) * Cols;
    __m256 Acc = _mm256_setzero_ps();
    int I = 0;
    for (; I + 8 <= Cols; I += 8) {
      __m256 D = _mm256_sub_ps(_mm256_loadu_ps(P + Base + I),
                               _mm256_loadu_ps(T + Base + I));
      _mm256_storeu_ps(G + Base + I, _mm256_mul_ps(Scale, D));
      Acc = _mm256_fmadd_ps(D, D, Acc);
    }
    // Fixed-order lane fold, then the scalar tail — deterministic.
    alignas(32) float Lanes[8];
    _mm256_store_ps(Lanes, Acc);
    float RowSum = ((Lanes[0] + Lanes[1]) + (Lanes[2] + Lanes[3])) +
                   ((Lanes[4] + Lanes[5]) + (Lanes[6] + Lanes[7]));
    for (; I < Cols; ++I) {
      float D = P[Base + I] - T[Base + I];
      G[Base + I] = 2.0f * InvN * D;
      RowSum += D * D;
    }
    Loss += static_cast<double>(RowSum) * InvN;
  }
  return Loss;
}

void simd::adamUpdateAvx(float *W, float *G, float *M, float *V, size_t N,
                         float Lr, float B1, float B2, float Eps,
                         float InvBias1, float InvBias2, float Scale) {
  const __m256 B1V = _mm256_set1_ps(B1), C1V = _mm256_set1_ps(1.0f - B1);
  const __m256 B2V = _mm256_set1_ps(B2), C2V = _mm256_set1_ps(1.0f - B2);
  const __m256 LrV = _mm256_set1_ps(Lr), EpsV = _mm256_set1_ps(Eps);
  const __m256 IB1 = _mm256_set1_ps(InvBias1), IB2 = _mm256_set1_ps(InvBias2);
  const __m256 ScaleV = _mm256_set1_ps(Scale);
  const __m256 Zero = _mm256_setzero_ps();
  const __m256 SignV = _mm256_set1_ps(-0.0f);
  const __m256 MinNormV = _mm256_set1_ps(FLT_MIN);
  // The 8-lane flushSubnormal: keeps only the sign bit of lanes with
  // |X| < FLT_MIN, so subnormals become signed zeros and everything else,
  // NaN included, passes unchanged.
  auto FlushSubnormalV = [&](__m256 X) {
    __m256 Tiny =
        _mm256_cmp_ps(_mm256_andnot_ps(SignV, X), MinNormV, _CMP_LT_OQ);
    return _mm256_andnot_ps(_mm256_andnot_ps(SignV, Tiny), X);
  };
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Gv = _mm256_mul_ps(_mm256_loadu_ps(G + I), ScaleV);
    __m256 Mv = FlushSubnormalV(_mm256_fmadd_ps(B1V, _mm256_loadu_ps(M + I),
                                               _mm256_mul_ps(C1V, Gv)));
    __m256 Vv = FlushSubnormalV(
        _mm256_fmadd_ps(B2V, _mm256_loadu_ps(V + I),
                        _mm256_mul_ps(C2V, _mm256_mul_ps(Gv, Gv))));
    _mm256_storeu_ps(M + I, Mv);
    _mm256_storeu_ps(V + I, Vv);
    __m256 MHat = _mm256_mul_ps(Mv, IB1);
    __m256 VHat = _mm256_mul_ps(Vv, IB2);
    __m256 Denom = _mm256_add_ps(_mm256_sqrt_ps(VHat), EpsV);
    __m256 StepV = _mm256_div_ps(_mm256_mul_ps(LrV, MHat), Denom);
    _mm256_storeu_ps(W + I, _mm256_sub_ps(_mm256_loadu_ps(W + I), StepV));
    _mm256_storeu_ps(G + I, Zero);
  }
  for (; I < N; ++I) {
    float Gs = G[I] * Scale;
    M[I] = flushSubnormal(B1 * M[I] + (1.0f - B1) * Gs);
    V[I] = flushSubnormal(B2 * V[I] + (1.0f - B2) * Gs * Gs);
    float MHat = M[I] * InvBias1;
    float VHat = V[I] * InvBias2;
    W[I] -= Lr * MHat / (std::sqrt(VHat) + Eps);
    G[I] = 0.0f;
  }
}

#else // !(__AVX2__ && __FMA__)

// Built without AVX2/FMA codegen (non-x86 target or a compiler that rejects
// the flags): the dispatcher reports simdSupported() == false and never
// calls these, but the symbols must still link.

#include <cstdlib>

using namespace au::nn;

namespace {
[[noreturn]] void unreachableSimd() { std::abort(); }
} // namespace

void simd::packBPanels(const float *, int, bool, int, int, float *) {
  unreachableSimd();
}
void simd::microKernelRange(int, int, int, int, int, float, const float *, int,
                            bool, const float *, float, const float *,
                            float *, int) {
  unreachableSimd();
}
void simd::im2colAvx(const float *, int, int, int, int, int, float *) {
  unreachableSimd();
}
void simd::reluForwardAvx(float *, size_t) { unreachableSimd(); }
void simd::reluBackwardAvx(float *, const float *, size_t) {
  unreachableSimd();
}
void simd::maxPool2x2Avx(const float *, int, int, int, float *, uint8_t *) {
  unreachableSimd();
}
void simd::biasAddRowsAvx(float *, const float *, int, int) {
  unreachableSimd();
}
double simd::mseBatchAvx(const float *, const float *, float *, int, int) {
  unreachableSimd();
}
void simd::adamUpdateAvx(float *, float *, float *, float *, size_t, float,
                         float, float, float, float, float, float) {
  unreachableSimd();
}

#endif // __AVX2__ && __FMA__
