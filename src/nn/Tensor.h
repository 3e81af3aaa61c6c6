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
#include <vector>

namespace au {
namespace nn {

/// A row-major dense tensor of floats.
class Tensor {
public:
  Tensor() = default;

  /// Creates a tensor of the given \p Shape filled with \p Fill.
  explicit Tensor(std::vector<int> Shape, float Fill = 0.0f);

  /// Wraps an existing buffer (element count must match the shape product)
  /// without initializing it — the workspace recycling path.
  static Tensor adopt(std::vector<float> Buffer, std::vector<int> Shape);

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
  std::vector<float> &values() { return Data; }
  const std::vector<float> &values() const { return Data; }

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
  std::vector<float> Data;
};

} // namespace nn
} // namespace au

#endif // AU_NN_TENSOR_H
