//===- nn/Network.h - Sequential neural network ----------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sequential network of layers plus builders for the two model families
/// the paper uses: buildDnn (fully connected stacks, au_config model type
/// DNN) and buildDeepMindCnn (the DeepMind-style conv/pool front end followed
/// by the same dense head, used by the Raw pixel baselines).
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_NETWORK_H
#define AU_NN_NETWORK_H

#include "nn/Layer.h"

#include <memory>
#include <vector>

namespace au {
class Rng;
namespace nn {

/// What one Network::forward leaves for the matching backward: a LayerCtx
/// per layer and the intermediate activations they point into. The caller
/// owns it and reuses it for every minibatch; its buffers recycle through
/// the Workspace, so the steady state allocates nothing. One context serves
/// one forward/backward pair at a time.
class ForwardCtx {
  friend class Network;

  /// Returns every tensor the context holds to this thread's workspace.
  void release();

  std::vector<LayerCtx> Layers;
  /// Acts[I] is layer I's output, kept while layer I + 1's context points
  /// at it (the last layer's output goes to the caller instead).
  std::vector<Tensor> Acts;
};

/// An owning sequence of layers evaluated front to back.
class Network {
public:
  Network() = default;
  Network(Network &&) = default;
  Network &operator=(Network &&) = default;

  /// Appends a layer; returns *this for chaining.
  Network &add(std::unique_ptr<Layer> L);

  /// Runs the forward pass on a whole minibatch at once; \p In is a
  /// rank-(N+1) tensor whose leading dimension is the batch (1 for a single
  /// sample). Returns a workspace tensor the caller releases. With a null
  /// \p Ctx (inference) nothing is kept; a network whose packed caches are
  /// fresh (pack()) is then only read, so any number of threads may run it
  /// at once. With \p Ctx, the context keeps what backward() needs, and
  /// \p In must stay alive until that backward.
  Tensor forward(const Tensor &In, ForwardCtx *Ctx = nullptr) const;

  /// Backward pass for the forward that filled \p Ctx. Accumulates the
  /// summed minibatch parameter gradients, then releases what \p Ctx held.
  /// Returns dLoss/dInput when \p WantGradIn; otherwise the pass stops at
  /// the first layer with parameters, which skips its own input gradient,
  /// and returns an empty tensor. Parameter gradients are bitwise the same
  /// either way.
  Tensor backward(const Tensor &GradOut, ForwardCtx &Ctx,
                  bool WantGradIn = false);

  /// All parameter views across layers, in a stable order (built once, as
  /// the layers are added).
  const std::vector<ParamView> &params() const { return Params; }

  /// Zeroes every gradient accumulator.
  void zeroGrads();

  /// Total number of trainable scalars.
  size_t numParams() const;

  /// Serialized model size in bytes (parameters as float32 plus a small
  /// header), mirroring Table 2's "Model Size" column.
  size_t sizeInBytes() const;

  size_t numLayers() const { return Layers.size(); }
  const Layer &layer(size_t I) const {
    assert(I < Layers.size() && "layer index out of range");
    return *Layers[I];
  }

  /// Bumps every layer's parameter generation, invalidating all packed
  /// weight caches. Call after mutating parameters outside the optimizers
  /// (which bump it themselves).
  void bumpParamGeneration();

  /// Copies parameter values from \p Other (architectures must match).
  /// Used for DQN target-network synchronization.
  void copyParamsFrom(const Network &Other);

  /// Packs every layer's forward weight operands for the active engine
  /// (DESIGN.md §9), so that later forwards only read the network.
  void pack() const;

  /// A forward-only copy for publication: every layer with its parameters
  /// and forward pack, without gradients or backward caches (Layer::clone).
  /// Only forward() and pack() may run on it.
  Network clone() const;

private:
  std::vector<std::unique_ptr<Layer>> Layers;
  std::vector<ParamView> Params;
  /// Index of the first layer with parameters; Layers.size() when none.
  size_t FirstParamLayer = 0;
};

/// Builds a fully connected ReLU network: InSize -> Hidden... -> OutSize.
/// The hidden layout mirrors au_config's (layers, neuron1, ...) arguments;
/// the input and output sizes are "automatically computed" by the runtime as
/// in the paper.
Network buildDnn(int InSize, const std::vector<int> &Hidden, int OutSize,
                 Rng &Rand);

/// Builds the DeepMind-style CNN used by the Raw baselines: conv/pool
/// feature stages over a (Channels, Side, Side) input, then dense hidden
/// layers. \p Side must be a multiple of 4 and at least 12.
Network buildDeepMindCnn(int Channels, int Side,
                         const std::vector<int> &Hidden, int OutSize,
                         Rng &Rand);

} // namespace nn
} // namespace au

#endif // AU_NN_NETWORK_H
