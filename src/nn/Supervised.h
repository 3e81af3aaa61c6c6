//===- nn/Supervised.h - Supervised (AdamOpt) trainer ----------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline supervised training over (feature, target) pairs, the paper's SL
/// regime: the runtime piggybacks on normal software execution to collect
/// feature-variable values and the desirable target-variable values, then
/// trains an AdamOpt DNN after execution. Both inputs and targets are
/// z-normalized internally so callers can feed raw program values.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_SUPERVISED_H
#define AU_NN_SUPERVISED_H

#include "nn/Network.h"
#include "nn/Optimizer.h"

#include <vector>

namespace au {
class Rng;
namespace nn {

/// One training example: a flattened feature vector and target values.
struct Sample {
  std::vector<float> X;
  std::vector<float> Y;
};

/// Trains a regression network on a dataset with Adam + MSE, normalizing
/// inputs and outputs from dataset statistics.
class SupervisedTrainer {
public:
  /// \p Net must map InSize -> OutSize of the dataset samples.
  SupervisedTrainer(Network Net, double LearningRate = 1e-3);

  /// Adds one example; all examples must have consistent sizes.
  void addSample(std::vector<float> X, std::vector<float> Y);

  size_t numSamples() const { return Data.size(); }

  /// Trains for \p Epochs passes with the given minibatch size, shuffling
  /// with \p Rand each epoch: one forwardBatch/backwardBatch and one Adam
  /// step per minibatch. Returns the final epoch's mean loss (normalized
  /// space). No-op (returns 0) on an empty dataset.
  double train(int Epochs, int BatchSize, Rng &Rand);

  /// The prediction entry point: \p Xs holds \p Rows raw feature vectors
  /// back to back (Rows x inputSize, row-major); \p Out is resized to Rows x
  /// outputSize de-normalized predictions, computed in one forwardBatch.
  /// Normalization staging reuses a member tensor, so repeated calls at a
  /// fixed row count allocate nothing here (the au_NN hot path; Rows == 1
  /// is the single-call case).
  void predictRowsInto(const float *Xs, int Rows, std::vector<float> &Out);

  /// predictRowsInto for one feature vector \p X.
  std::vector<float> predict(const std::vector<float> &X);

  /// Mean |prediction - target| per output in raw target units over the
  /// dataset (resubstitution error, for quick sanity checks).
  double meanAbsError();

  Network &network() { return Net; }

  /// Exports the dataset normalization statistics (for model persistence).
  /// Computes them from the dataset when not yet available.
  void getNormalization(std::vector<float> &XM, std::vector<float> &XS,
                        std::vector<float> &YM, std::vector<float> &YS);

  /// Installs normalization statistics (used when loading a saved model
  /// without its dataset).
  void setNormalization(std::vector<float> XM, std::vector<float> XS,
                        std::vector<float> YM, std::vector<float> YS);

private:
  void computeNormalization();

  Network Net;
  Adam Opt;
  std::vector<Sample> Data;
  // Per-dimension normalization (computed lazily on first train()).
  std::vector<float> XMean, XStd, YMean, YStd;
  bool Normalized = false;
  Tensor RowStaging; ///< predictRowsInto input staging (reused per call).
};

} // namespace nn
} // namespace au

#endif // AU_NN_SUPERVISED_H
