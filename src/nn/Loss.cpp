//===- nn/Loss.cpp - Loss functions ---------------------------------------===//

#include "nn/Loss.h"

#include "nn/Gemm.h"

#include <cassert>

using namespace au;
using namespace au::nn;

double au::nn::mseLossBatch(const Tensor &Pred, const Tensor &Target,
                            Tensor &Grad) {
  assert(Pred.rank() == 2 && Pred.shape() == Target.shape() &&
         "batched loss shape mismatch");
  assert(!Pred.empty() && "loss of empty tensors");
  // Reallocate only when the shape changed, so steady-state training reuses
  // one gradient buffer; the kernel writes every element.
  if (Grad.shape() != Pred.shape())
    Grad = Tensor(Pred.shape());
  return mseBatchKernel(Pred.data(), Target.data(), Grad.data(), Pred.dim(0),
                        Pred.dim(1));
}
