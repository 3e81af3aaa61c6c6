//===- nn/Optimizer.h - Adam optimizer -------------------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer realizing the semantics' gradient() statement extension:
/// Adam (Kingma & Ba), the paper's "AdamOpt" algorithm, used by both the
/// supervised and the Q-learning trainers. It is bound to a network's
/// parameter views and applies the accumulated gradients on each step().
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_OPTIMIZER_H
#define AU_NN_OPTIMIZER_H

#include "nn/Layer.h"

#include <vector>

namespace au {
namespace nn {

class Network;

/// Adam optimizer (the paper's AdamOpt).
class Adam {
public:
  Adam(Network &Net, double LearningRate, double Beta1 = 0.9,
       double Beta2 = 0.999, double Eps = 1e-8);

  /// Applies the currently accumulated gradients, scaled by \p BatchScale
  /// (1/BatchSize), then zeroes them.
  void step(double BatchScale);

  /// Adjusts the step size (used for learning-rate schedules).
  void setLearningRate(double LearningRate) { Lr = LearningRate; }

private:
  Network *Net; ///< Parameters to update; bumps their generation on step().
  double Lr, B1, B2, Eps;
  long Step = 0;
  std::vector<std::vector<float>> M;
  std::vector<std::vector<float>> V;
};

} // namespace nn
} // namespace au

#endif // AU_NN_OPTIMIZER_H
