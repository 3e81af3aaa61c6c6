//===- nn/Loss.h - Loss functions ------------------------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervised regime's loss: mean-squared error between the
/// parameter-prediction model's outputs and the target values, over a
/// minibatch. (The Q-learning update regresses one Q-value per sample with
/// the Huber derivative computed inline in QLearner::trainStep.)
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_LOSS_H
#define AU_NN_LOSS_H

#include "nn/Tensor.h"

namespace au {
namespace nn {

/// Batched MSE over [Batch, N] tensors: returns the *sum* over the batch of
/// each sample's mean-squared error (so dividing by the dataset size yields
/// the epoch's mean per-sample loss), and fills \p Grad with the
/// per-sample gradients 2 * (Pred - Target) / N.
double mseLossBatch(const Tensor &Pred, const Tensor &Target, Tensor &Grad);

} // namespace nn
} // namespace au

#endif // AU_NN_LOSS_H
