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
/// by the same dense head, used by the Raw pixel baselines). Networks can be
/// serialized to a binary file, realizing the semantics' loadModel() /
/// CONFIG-TEST rule.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_NETWORK_H
#define AU_NN_NETWORK_H

#include "nn/Layer.h"

#include <memory>
#include <string>
#include <vector>

namespace au {
class Rng;
namespace nn {

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
  /// sample). Uses the GEMM/im2col compute engine.
  Tensor forwardBatch(const Tensor &In);

  /// Batched backward pass; must follow forwardBatch() on the same batch.
  /// Accumulates the summed minibatch parameter gradients. Returns
  /// dLoss/dInput when \p WantGradIn; otherwise the pass stops at the first
  /// layer with parameters, which skips its own input gradient, and returns
  /// an empty tensor. Parameter gradients are bitwise the same either way.
  Tensor backwardBatch(const Tensor &GradOut, bool WantGradIn = false);

  /// All parameter views across layers, in a stable order.
  std::vector<ParamView> params();

  /// Zeroes every gradient accumulator.
  void zeroGrads();

  /// Total number of trainable scalars.
  size_t numParams();

  /// Serialized model size in bytes (parameters as float32 plus a small
  /// header), mirroring Table 2's "Model Size" column.
  size_t sizeInBytes();

  size_t numLayers() const { return Layers.size(); }
  Layer &layer(size_t I) {
    assert(I < Layers.size() && "layer index out of range");
    return *Layers[I];
  }

  /// Bumps every layer's parameter generation, invalidating all packed
  /// weight caches. Call after mutating parameters outside the optimizers
  /// (which bump it themselves).
  void bumpParamGeneration();

  /// Copies parameter values from \p Other (architectures must match).
  /// Used for DQN target-network synchronization.
  void copyParamsFrom(Network &Other);

  /// Writes all parameters to a binary file; returns false on I/O failure.
  /// The architecture is not stored — load into an identically built net.
  bool saveParams(const std::string &Path);

  /// Reads parameters written by saveParams; returns false on mismatch.
  bool loadParams(const std::string &Path);

private:
  std::vector<std::unique_ptr<Layer>> Layers;
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
