//===- nn/Gemm.h - SGEMM micro-kernels and im2col lowering -----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched compute engine's kernels: a runtime-dispatched SGEMM with a
/// transpose-aware interface, and the im2col/col2im lowering that expresses
/// Conv2D forward, input-gradient, and weight-gradient as GEMM. Every kernel
/// accumulates each output element in a fixed (k-ascending) order regardless
/// of blocking, tiling, or thread count, so results are bitwise reproducible
/// at any AU_NN_THREADS within one backend.
///
/// Two engines are selectable at runtime via AU_NN_BACKEND:
///
///  * simd    — AVX2/FMA 6x16 register-tile micro-kernel that reads A in
///              place and B from packed panels (the default when the CPU
///              supports AVX2 and FMA).
///  * blocked — the portable blocked-scalar kernel; the only engine on CPUs
///              without AVX2/FMA.
///
/// Both are checked against a direct-formula reference that lives with the
/// tests (tests/NnOracle.h).
///
/// Right-hand weight operands can be pre-packed once into the active
/// engine's fast layout and cached on the layer (a PackedOperand),
/// invalidated by the layer's parameter-generation counter; see DESIGN.md §9.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_GEMM_H
#define AU_NN_GEMM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace au {
namespace nn {

/// Which compute engine the layers, trainers and GEMM calls use.
enum class Backend {
  Simd,   ///< AVX2/FMA micro-kernel engine (default where supported).
  Blocked ///< Portable blocked-scalar GEMM/im2col engine.
};

/// Whether this process can run the simd engine (compiled for x86 and the
/// CPU reports AVX2 + FMA).
bool simdSupported();

/// The active backend: AU_NN_BACKEND=simd|blocked at startup, unless
/// overridden by setBackend(). Defaults to simd when supported, else
/// blocked; any other AU_NN_BACKEND value prints one line to stderr naming
/// the accepted values and runs the default.
Backend backend();

/// Overrides the active backend (tests and benchmarks). Requesting simd on
/// hardware without AVX2/FMA falls back to blocked.
void setBackend(Backend B);

/// The backend this process starts with: AU_NN_BACKEND if set, else simd
/// clamped to the hardware. Lets tests restore the ambient default.
Backend defaultBackend();

/// Lower-case engine name for logs and benchmark output.
const char *backendName(Backend B);

/// C = Alpha * op(A) * op(B) + Beta * C over row-major matrices, where
/// op(X) = X or X^T per the Trans flags. op(A) is M x K, op(B) is K x N and
/// C is M x N; Lda/Ldb/Ldc are the row strides of the *stored* matrices.
/// Rows of C are computed in parallel; each element accumulates k-ascending,
/// so the result is independent of the thread count.
void sgemm(bool TransA, bool TransB, int M, int N, int K, float Alpha,
           const float *A, int Lda, const float *B, int Ldb, float Beta,
           float *C, int Ldc);

//===----------------------------------------------------------------------===//
// Pre-packed weight operands (DESIGN.md §9: packing lifecycle)
//===----------------------------------------------------------------------===//

/// One right-hand GEMM operand op(B) held in the active engine's fast
/// layout: the blocked engine stores plain row-major op(B); the simd engine
/// stores 16-column register-tile panels. The left operand needs no cache:
/// the simd micro-kernel reads op(A) in place from the stored matrix. A layer
/// caches one of these per weight-consuming GEMM and re-packs only when its
/// parameter generation or the active engine changes.
struct PackedOperand {
  std::vector<float> Data;
  int Rows = 0, Cols = 0;            ///< Logical op(X) extents.
  Backend For = Backend::Simd;       ///< Engine the layout was packed for.
  uint64_t Gen = 0;                  ///< Parameter generation when packed.
  bool Present = false;

  /// True when the cache can serve the active engine at generation \p G.
  bool fresh(Backend Engine, uint64_t G) const {
    return Present && For == Engine && Gen == G;
  }
};

/// Ensures \p P holds op(B) = K x N (stored \p B with row stride \p Ldb,
/// transposed per \p TransB) packed for the active engine at parameter
/// generation \p Gen; re-packs only when stale. Not thread-safe: call before
/// entering any parallel region that consumes \p P.
void ensurePackedB(PackedOperand &P, uint64_t Gen, bool TransB, int K, int N,
                   const float *B, int Ldb);

/// sgemm with a pre-packed right operand (\p PB from ensurePackedB, same
/// active engine). Safe to call concurrently from disjoint-output tasks.
void sgemmPackedB(bool TransA, const PackedOperand &PB, int M, int N, int K,
                  float Alpha, const float *A, int Lda, float Beta, float *C,
                  int Ldc);

/// Simd-only conv forward GEMM: C = A * B + bias[row], where \p A is the
/// M x K weight matrix (row stride \p Lda) and \p B is the K x N im2col
/// column matrix (row stride \p Ldb). The per-output-channel bias seeds the
/// micro-kernel accumulators, so no separate bias fill or Beta read-modify
/// pass touches C. Safe to call concurrently from disjoint-output tasks.
void sgemmConvBias(int M, int N, int K, const float *A, int Lda,
                   const float *B, int Ldb, const float *Bias, float *C,
                   int Ldc);

//===----------------------------------------------------------------------===//
// Elementwise kernels (AVX2-vectorized under the simd engine)
//===----------------------------------------------------------------------===//

/// Y[i] = max(Y[i], 0). Identical results under every engine (no
/// accumulation), vectorized under simd.
void reluForwardKernel(float *Y, size_t N);

/// G[i] = X[i] > 0 ? G[i] : 0.
void reluBackwardKernel(float *G, const float *X, size_t N);

/// 2x2/stride-2 max pooling of one (C, H, W) slab into the (C, H/2, W/2)
/// slab \p Out; an odd trailing row or column is dropped. Each output is the
/// first strict maximum of its window in the order (0,0), (0,1), (1,0),
/// (1,1): a tie keeps the earlier element (+0 and -0 included) and a NaN
/// wins only from the first slot. \p Window receives the winner's slot as
/// 2 * dy + dx. Identical results under every engine, vectorized (branch
/// free) under simd.
void maxPool2x2Kernel(const float *In, int C, int H, int W, float *Out,
                      uint8_t *Window);

/// Fills each of \p Rows rows of \p Y (row stride \p Cols) with \p Bias.
void biasAddRowsKernel(float *Y, const float *Bias, int Rows, int Cols);

/// Batched MSE: writes G = 2 * (P - T) / Cols and returns the sum over rows
/// of each row's mean squared error. The simd engine accumulates each row in
/// 8 float lanes folded in a fixed order (deterministic, but rounded
/// differently from the blocked engine).
double mseBatchKernel(const float *P, const float *T, float *G, int Rows,
                      int Cols);

/// Adam update over one parameter tensor: moment update, bias correction,
/// parameter step, and gradient clear in one pass. Bias1/Bias2 are
/// 1 - beta^t; Scale multiplies the accumulated gradient. The simd engine
/// runs a fused single-precision pass; the blocked engine computes in double
/// over the float storage. Every engine flushes moments with |x| < FLT_MIN to a
/// zero of the same sign, so parameters whose gradient stays 0 do not pin
/// their moments on subnormals.
void adamUpdateKernel(float *W, float *G, float *M, float *V, size_t N,
                      double Lr, double B1, double B2, double Eps,
                      double Bias1, double Bias2, double Scale);

//===----------------------------------------------------------------------===//
// im2col / col2im
//===----------------------------------------------------------------------===//

/// Number of output rows/columns of a valid convolution.
inline int convOutDim(int InDim, int K, int S) { return (InDim - K) / S + 1; }

/// Lowers a (C, H, W) input to the column matrix Col[C*K*K][OH*OW] with
/// Col[(c*K + ky)*K + kx][oy*OW + ox] = In[c][oy*S + ky][ox*S + kx], so a
/// valid convolution becomes Weights[OutC][C*K*K] * Col.
void im2col(const float *In, int C, int H, int W, int K, int S, float *Col);

/// Transposed scatter of im2col: accumulates Col back into the (C, H, W)
/// image \p In (+=), used to form convolution input gradients.
void col2im(const float *Col, int C, int H, int W, int K, int S, float *In);

} // namespace nn
} // namespace au

#endif // AU_NN_GEMM_H
