//===- nn/Layer.h - Neural network layer interface -------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer abstraction for the NN substrate. A layer computes on batches:
/// forward/backward take rank-(N+1) tensors whose leading dimension is the
/// minibatch, so a whole minibatch flows through the network in one call of
/// the GEMM/im2col compute engine. A single sample is a batch of one. A
/// layer owns its parameters and the gradient accumulators that the
/// optimizer consumes, and nothing else: whatever one pass leaves for its
/// backward lives in a LayerCtx the caller owns. forward is const, so any
/// number of threads may run it on one layer at once.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_LAYER_H
#define AU_NN_LAYER_H

#include "nn/Tensor.h"

#include <cstdint>
#include <memory>
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

/// What one layer's forward leaves for the matching backward. The caller
/// owns it (Network keeps one per layer in a ForwardCtx), so the layer
/// itself holds no per-call state.
struct LayerCtx {
  /// The forward input, for a layer whose backward reads it (Dense, ReLU).
  /// Not owned: whoever passed the input keeps it alive until the backward.
  const Tensor *In = nullptr;
  /// The input's shape, for a layer whose backward needs only that.
  std::vector<int> InShape;
  /// Layer-specific saved state: Conv2D's im2col columns (a workspace
  /// tensor, released by the owner after the backward).
  Tensor Saved;
  /// MaxPool2D's winning window slot per output, 2 * dy + dx.
  std::vector<uint8_t> Window;
};

/// Base class for all layers.
class Layer {
public:
  virtual ~Layer();

  /// Batched forward pass: \p In is a rank-(N+1) tensor whose leading
  /// dimension is the minibatch; returns a workspace tensor. With \p Ctx,
  /// records in it what backward needs (possibly a pointer to \p In); with
  /// a null \p Ctx (inference) nothing is saved and scratch comes from the
  /// Workspace.
  virtual Tensor forward(const Tensor &In, LayerCtx *Ctx) const = 0;

  /// Batched backward pass for the forward that filled \p Ctx. Accumulates
  /// the summed minibatch parameter gradients and returns dLoss/dIn with
  /// the same leading batch dimension. With \p NeedGradIn false nobody
  /// reads dLoss/dIn: a layer with parameters then skips it and returns an
  /// empty tensor (Network::backward passes false only to the first such
  /// layer).
  virtual Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                          bool NeedGradIn) = 0;

  /// Parameter tensors (empty for stateless layers such as ReLU). The
  /// pointers stay valid for the layer's lifetime.
  virtual std::vector<ParamView> params() { return {}; }

  /// Packs the weight operands forward reads into the active engine's
  /// layout, so later forwards only read them (DESIGN.md §9).
  virtual void pack() const {}

  /// A forward-only copy of this layer, for a published network: its
  /// parameters and forward pack, without gradient accumulators or backward
  /// caches. Only forward() and pack() may run on the copy.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Monotonic parameter version. Packed-weight caches (DESIGN.md §9) store
  /// the generation they were packed at and re-pack only when it moves.
  uint64_t paramGen() const { return ParamGen; }

  /// Records that this layer's parameters changed (optimizer step, parameter
  /// load/restore, direct mutation through the raw accessors).
  void bumpParamGen() { ++ParamGen; }

protected:
  /// Selects the forward-only copy constructors behind clone().
  struct ForwardOnlyCopy {};

private:
  uint64_t ParamGen = 0;
};

} // namespace nn
} // namespace au

#endif // AU_NN_LAYER_H
