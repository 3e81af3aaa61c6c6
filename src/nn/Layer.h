//===- nn/Layer.h - Neural network layer interface -------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer abstraction for the NN substrate. A layer computes on batches:
/// forwardBatch/backwardBatch take rank-(N+1) tensors whose leading
/// dimension is the minibatch, so a whole minibatch flows through the
/// network in one call of the GEMM/im2col compute engine. A single sample is
/// a batch of one. A layer owns its parameters and the gradient accumulators
/// that the optimizer consumes.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_LAYER_H
#define AU_NN_LAYER_H

#include "nn/Tensor.h"

#include <string>
#include <vector>

namespace au {
class Rng;
namespace nn {

/// A view of one parameter tensor and its gradient accumulator, handed to
/// optimizers. Both spans have \p Count elements.
struct ParamView {
  float *Values;
  float *Grads;
  size_t Count;
};

/// Base class for all layers. forwardBatch caches whatever backwardBatch
/// needs, so a layer instance processes one batch at a time (forward
/// immediately followed by the matching backward).
class Layer {
public:
  virtual ~Layer();

  /// Batched forward pass: \p In is a rank-(N+1) tensor whose leading
  /// dimension is the minibatch. Caches whatever backwardBatch needs for the
  /// whole batch.
  virtual Tensor forwardBatch(const Tensor &In) = 0;

  /// Batched backward pass; must follow a forwardBatch() on the same batch.
  /// Accumulates the summed minibatch parameter gradients and returns
  /// dLoss/dIn with the same leading batch dimension. With \p NeedGradIn
  /// false nobody reads dLoss/dIn: a layer with parameters then skips it and
  /// returns an empty tensor (Network::backwardBatch passes false only to
  /// the first such layer).
  virtual Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) = 0;

  /// Parameter tensors (empty for stateless layers such as ReLU).
  virtual std::vector<ParamView> params() { return {}; }

  /// Zeroes all gradient accumulators.
  void zeroGrads();

  /// Total number of trainable scalars.
  size_t numParams();

  /// Monotonic parameter version. Packed-weight caches (DESIGN.md §9) store
  /// the generation they were packed at and re-pack only when it moves.
  uint64_t paramGen() const { return ParamGen; }

  /// Records that this layer's parameters changed (optimizer step, parameter
  /// load/restore, direct mutation through the raw accessors).
  void bumpParamGen() { ++ParamGen; }

  /// Human-readable layer kind for diagnostics and serialization.
  virtual std::string kind() const = 0;

private:
  uint64_t ParamGen = 0;
};

} // namespace nn
} // namespace au

#endif // AU_NN_LAYER_H
