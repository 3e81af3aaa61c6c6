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

  Tensor forward(const Tensor &In, LayerCtx *Ctx) const override;
  Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                  bool NeedGradIn) override;
  std::vector<ParamView> params() override;
  void pack() const override;
  std::unique_ptr<Layer> clone() const override;

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
  Dense(const Dense &Src, ForwardOnlyCopy);

  int In;
  int Out;
  std::vector<float> W;  // Out x In, row-major.
  std::vector<float> B;  // Out.
  std::vector<float> GW; // Gradient accumulators.
  std::vector<float> GB;
  // Packed weight operands, engine layout, filled lazily. A forward that
  // finds PackedWT fresh only reads it, so a packed network serves many
  // threads at once.
  mutable PackedOperand PackedWT; // Forward operand op(B) = W^T.
  PackedOperand PackedWB;         // Backward operand op(B) = W.
};

/// Rectified linear unit, elementwise max(0, x).
class ReLU : public Layer {
public:
  Tensor forward(const Tensor &In, LayerCtx *Ctx) const override;
  Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                  bool NeedGradIn) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
};

/// 2-D convolution over (channels, height, width) tensors, stride
/// configurable, valid padding.
class Conv2D : public Layer {
public:
  Conv2D(int InChannels, int OutChannels, int KernelSize, int Stride,
         Rng &Rand);

  Tensor forward(const Tensor &In, LayerCtx *Ctx) const override;
  Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                  bool NeedGradIn) override;
  std::vector<ParamView> params() override;
  std::unique_ptr<Layer> clone() const override;

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
  Conv2D(const Conv2D &Src, ForwardOnlyCopy);

  int InC, OutC, K, S;
  std::vector<float> W;  // OutC x InC x K x K.
  std::vector<float> B;  // OutC.
  std::vector<float> GW;
  std::vector<float> GB;
};

/// 2x2 max pooling with stride 2 over (channels, height, width) tensors.
class MaxPool2D : public Layer {
public:
  Tensor forward(const Tensor &In, LayerCtx *Ctx) const override;
  Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                  bool NeedGradIn) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2D>(*this);
  }
};

/// Reshapes the input to a fixed target shape (element counts must match).
/// Placed at the front of CNN models so they accept the runtime's flat
/// feature vectors.
class Reshape : public Layer {
public:
  explicit Reshape(std::vector<int> TargetShape)
      : Target(std::move(TargetShape)) {}

  Tensor forward(const Tensor &In, LayerCtx *Ctx) const override;
  Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                  bool NeedGradIn) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Reshape>(*this);
  }

private:
  std::vector<int> Target;
};

/// Flattens any tensor to rank 1.
class Flatten : public Layer {
public:
  Tensor forward(const Tensor &In, LayerCtx *Ctx) const override;
  Tensor backward(const Tensor &GradOut, LayerCtx &Ctx,
                  bool NeedGradIn) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
};

} // namespace nn
} // namespace au

#endif // AU_NN_LAYERS_H
