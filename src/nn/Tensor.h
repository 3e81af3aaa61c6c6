//===- nn/Tensor.h - Dense float tensor ------------------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal dense float tensor with a dynamic shape, the value type flowing
/// through the neural-network substrate that stands in for TensorFlow. Only
/// the operations the layers need are provided; everything is row-major and
/// eager. Rank-1 tensors model the paper's "list of values" model inputs,
/// rank-3 tensors (channels, height, width) model the raw-pixel inputs of
/// the Raw baselines.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_TENSOR_H
#define AU_NN_TENSOR_H

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace au {
namespace nn {

/// An allocator whose construct() without a value default-initializes, so
/// resize() leaves the floats it adds unwritten. Tensor storage uses it: the
/// workspace recycles one buffer across shapes of every size, and a buffer
/// that grows back must not pay for a fill its next writer overwrites.
template <typename T> struct DefaultInitAllocator {
  using value_type = T;
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept {}
  T *allocate(size_t N) { return std::allocator<T>().allocate(N); }
  void deallocate(T *P, size_t N) noexcept {
    std::allocator<T>().deallocate(P, N);
  }
  template <typename U, typename... Args> void construct(U *P, Args &&...As) {
    if constexpr (sizeof...(Args) == 0)
      ::new (static_cast<void *>(P)) U;
    else
      ::new (static_cast<void *>(P)) U(std::forward<Args>(As)...);
  }
  friend bool operator==(const DefaultInitAllocator &,
                         const DefaultInitAllocator &) {
    return true;
  }
};

/// Tensor storage: a float vector whose growth writes nothing.
using FloatBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// A row-major dense tensor of floats.
class Tensor {
public:
  Tensor() = default;

  /// Creates a tensor of the given \p Shape filled with \p Fill.
  explicit Tensor(std::vector<int> Shape, float Fill = 0.0f);

  /// Wraps \p Buffer as it is (its size must equal the shape product):
  /// nothing is copied or written. Workspace::acquire hands out recycled
  /// buffers this way, so their contents are whatever the last user left.
  static Tensor adopt(FloatBuffer Buffer, std::vector<int> Shape);

  const std::vector<int> &shape() const { return Dims; }
  size_t size() const { return Data.size(); }
  bool empty() const { return Data.empty(); }
  int rank() const { return static_cast<int>(Dims.size()); }

  /// Extent of dimension \p D.
  int dim(int D) const {
    assert(D >= 0 && D < rank() && "dimension index out of range");
    return Dims[D];
  }

  float *data() { return Data.data(); }
  const float *data() const { return Data.data(); }
  FloatBuffer &values() { return Data; }
  const FloatBuffer &values() const { return Data; }

  float &operator[](size_t I) {
    assert(I < Data.size() && "flat index out of range");
    return Data[I];
  }
  float operator[](size_t I) const {
    assert(I < Data.size() && "flat index out of range");
    return Data[I];
  }

  /// For a batched tensor whose leading dimension is the batch, the number
  /// of elements in one sample.
  size_t sampleSize() const {
    assert(rank() >= 1 && Dims[0] > 0 && "sampleSize of unbatched tensor");
    return Data.size() / static_cast<size_t>(Dims[0]);
  }

  /// Pointer to the start of batched sample \p B (leading dim = batch).
  float *sampleData(int B) {
    assert(rank() >= 1 && B >= 0 && B < Dims[0] && "sample index out of range");
    return Data.data() + static_cast<size_t>(B) * sampleSize();
  }
  const float *sampleData(int B) const {
    assert(rank() >= 1 && B >= 0 && B < Dims[0] && "sample index out of range");
    return Data.data() + static_cast<size_t>(B) * sampleSize();
  }

  /// Sets every element to \p V.
  void fill(float V);

  /// Index of the maximum element (ties resolve to the lowest index).
  size_t argmax() const;

private:
  friend class Workspace; ///< Recycles Dims/Data buffers without copies.

  std::vector<int> Dims;
  FloatBuffer Data;
};

} // namespace nn
} // namespace au

#endif // AU_NN_TENSOR_H
