//===- nn/Tensor.cpp - Dense float tensor --------------------------------===//

#include "nn/Tensor.h"

#include <algorithm>

using namespace au;
using namespace au::nn;

Tensor::Tensor(std::vector<int> Shape, float Fill) : Dims(std::move(Shape)) {
  size_t N = 1;
  for (int D : Dims) {
    assert(D > 0 && "tensor dimensions must be positive");
    N *= static_cast<size_t>(D);
  }
  Data.assign(Dims.empty() ? 0 : N, Fill);
}

Tensor Tensor::adopt(FloatBuffer Buffer, std::vector<int> Shape) {
  Tensor T;
  T.Dims = std::move(Shape);
  size_t N = 1;
  for (int D : T.Dims) {
    assert(D > 0 && "tensor dimensions must be positive");
    N *= static_cast<size_t>(D);
  }
  assert(N == Buffer.size() && "adopted buffer size must match shape");
  T.Data = std::move(Buffer);
  return T;
}

void Tensor::fill(float V) { std::fill(Data.begin(), Data.end(), V); }

size_t Tensor::argmax() const {
  assert(!Data.empty() && "argmax of empty tensor");
  return static_cast<size_t>(
      std::max_element(Data.begin(), Data.end()) - Data.begin());
}
