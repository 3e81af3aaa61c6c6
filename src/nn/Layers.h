//===- nn/Layers.h - Concrete layer implementations ------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete layers needed to realize the paper's two model types: DNN
/// (Dense + ReLU stacks, used by the Min/Med/All feature-variable models) and
/// CNN (Conv2D + MaxPool2D preprocessing stages, used by the Raw pixel
/// baselines modeled after the DeepMind architecture).
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_LAYERS_H
#define AU_NN_LAYERS_H

#include "nn/Gemm.h"
#include "nn/Layer.h"

namespace au {
class Rng;
namespace nn {

/// Fully connected layer: Out = W * In + B.
class Dense : public Layer {
public:
  /// Initializes with He-uniform weights drawn from \p Rand.
  Dense(int InSize, int OutSize, Rng &Rand);

  Tensor forwardBatch(const Tensor &In) override;
  Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) override;
  std::vector<ParamView> params() override;
  std::string kind() const override { return "dense"; }

  int inSize() const { return In; }
  int outSize() const { return Out; }

  // Raw parameter access for serialization and tests. Conservatively bumps
  // the parameter generation — callers may mutate through the reference.
  std::vector<float> &weights() {
    bumpParamGen();
    return W;
  }
  std::vector<float> &biases() {
    bumpParamGen();
    return B;
  }

private:
  int In;
  int Out;
  std::vector<float> W;  // Out x In, row-major.
  std::vector<float> B;  // Out.
  std::vector<float> GW; // Gradient accumulators.
  std::vector<float> GB;
  Tensor LastIn;          // Activation cache ([Batch, In]).
  PackedOperand PackedWT; // Forward operand op(B) = W^T, engine layout.
  PackedOperand PackedWB; // Backward operand op(B) = W (input gradients).
};

/// Rectified linear unit, elementwise max(0, x).
class ReLU : public Layer {
public:
  Tensor forwardBatch(const Tensor &In) override;
  Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) override;
  std::string kind() const override { return "relu"; }

private:
  Tensor LastIn;
};

/// 2-D convolution over (channels, height, width) tensors, stride
/// configurable, valid padding.
class Conv2D : public Layer {
public:
  Conv2D(int InChannels, int OutChannels, int KernelSize, int Stride,
         Rng &Rand);

  Tensor forwardBatch(const Tensor &In) override;
  Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) override;
  std::vector<ParamView> params() override;
  std::string kind() const override { return "conv2d"; }

  int inChannels() const { return InC; }
  int outChannels() const { return OutC; }
  int kernelSize() const { return K; }
  int stride() const { return S; }

  std::vector<float> &weights() {
    bumpParamGen();
    return W;
  }
  std::vector<float> &biases() {
    bumpParamGen();
    return B;
  }

private:
  int InC, OutC, K, S;
  std::vector<float> W;  // OutC x InC x K x K.
  std::vector<float> B;  // OutC.
  std::vector<float> GW;
  std::vector<float> GB;
  // Workspace, preallocated and reused across calls: the im2col column
  // cache for the whole batch ([Batch][InC*K*K][OH*OW], also the activation
  // cache the weight-gradient GEMM consumes) and the column-gradient scratch
  // of identical layout.
  std::vector<float> Cols;
  std::vector<float> DCols;
  std::vector<int> InShape; // Cached input shape.
  int LastOH = 0, LastOW = 0;
};

/// 2x2 max pooling with stride 2 over (channels, height, width) tensors.
class MaxPool2D : public Layer {
public:
  Tensor forwardBatch(const Tensor &In) override;
  Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) override;
  std::string kind() const override { return "maxpool2d"; }

private:
  std::vector<uint8_t> Window; // Per output: winning window slot, 2*dy + dx.
  std::vector<int> InShape;
};

/// Reshapes the input to a fixed target shape (element counts must match).
/// Placed at the front of CNN models so they accept the runtime's flat
/// feature vectors.
class Reshape : public Layer {
public:
  explicit Reshape(std::vector<int> TargetShape)
      : Target(std::move(TargetShape)) {}

  Tensor forwardBatch(const Tensor &In) override;
  Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) override;
  std::string kind() const override { return "reshape"; }

private:
  std::vector<int> Target;
  std::vector<int> InShape;
  std::vector<int> NewShape; // Target shape with the batch, reused per call.
};

/// Flattens any tensor to rank 1.
class Flatten : public Layer {
public:
  Tensor forwardBatch(const Tensor &In) override;
  Tensor backwardBatch(const Tensor &GradOut, bool NeedGradIn) override;
  std::string kind() const override { return "flatten"; }

private:
  std::vector<int> InShape;
};

} // namespace nn
} // namespace au

#endif // AU_NN_LAYERS_H
