//===- nn/GemmSimdKernels.h - AVX2/FMA kernel entry points -----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal interface between the backend dispatcher (Gemm.cpp, compiled for
/// the baseline architecture) and the AVX2/FMA kernel bodies (GemmSimd.cpp,
/// compiled with -mavx2 -mfma). Nothing here may be called unless
/// simdSupported() returned true; the dispatcher guards every call site.
///
/// Operand layouts (MR = 6 rows, NR = 16 columns):
///  * A is read in place from the stored matrix through a row stride and a
///    k stride: op(A)[i][k] = A[i * Lda + k], or A[k * Lda + i] when
///    transposed. Nothing is packed on the A side.
///  * B panels: ceil(N/16) panels of [K][16] — BPanels[q][k*16 + c] holds
///    op(B)[k][q*16 + c], zero-padded past column N.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_GEMMSIMDKERNELS_H
#define AU_NN_GEMMSIMDKERNELS_H

#include <cstddef>
#include <cstdint>

namespace au {
namespace nn {
namespace simd {

constexpr int MR = 6;  ///< Micro-tile rows (ymm broadcast operands).
constexpr int NR = 16; ///< Micro-tile columns (two 8-lane ymm vectors).

inline int numRowPanels(int M) { return (M + MR - 1) / MR; }
inline int numBPanels(int N) { return (N + NR - 1) / NR; }
inline size_t bPanelsSize(int K, int N) {
  return static_cast<size_t>(numBPanels(N)) * K * NR;
}

/// Packs op(B) (K x N; stored transposed when \p Trans) into B panels.
void packBPanels(const float *B, int Ldb, bool Trans, int K, int N,
                 float *Dst);

/// C = Alpha * op(A) * panels + Beta * C for the 6-row panel range
/// [PanelBegin, PanelEnd), reading op(A) (M x K) in place from the stored
/// \p A (row stride \p Lda, transposed when \p TransA). Each C element
/// accumulates k-ascending in a single FMA chain, so results are
/// independent of panel scheduling. When
/// \p BiasRow is non-null the accumulators start at BiasRow[row] instead of
/// zero (the conv-forward epilogue fusion); that path requires Alpha == 1
/// and Beta == 0, matching "fill C with bias, then accumulate on top".
void microKernelRange(int PanelBegin, int PanelEnd, int M, int N, int K,
                      float Alpha, const float *A, int Lda, bool TransA,
                      const float *BPanels, float Beta, const float *BiasRow,
                      float *C, int Ldc);

/// im2col with inline AVX copies of the stride-1 row runs — bitwise
/// identical output to au::nn::im2col, minus the per-run libc memcpy
/// dispatch (row runs are a dozen floats; the call overhead dominates).
void im2colAvx(const float *In, int C, int H, int W, int K, int S,
               float *Col);

// Elementwise AVX2 bodies (see the dispatched wrappers in Gemm.h).
void reluForwardAvx(float *Y, size_t N);
void reluBackwardAvx(float *G, const float *X, size_t N);
void maxPool2x2Avx(const float *In, int C, int H, int W, float *Out,
                   uint8_t *Window);
void biasAddRowsAvx(float *Y, const float *Bias, int Rows, int Cols);
double mseBatchAvx(const float *P, const float *T, float *G, int Rows,
                   int Cols);
void adamUpdateAvx(float *W, float *G, float *M, float *V, size_t N, float Lr,
                   float B1, float B2, float Eps, float InvBias1,
                   float InvBias2, float Scale);

} // namespace simd
} // namespace nn
} // namespace au

#endif // AU_NN_GEMMSIMDKERNELS_H
