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

/// Per-dimension z-score statistics: inputs are normalized with the X pair,
/// predictions de-normalized with the Y pair.
struct Normalization {
  std::vector<float> XMean, XStd, YMean, YStd;
};

/// The prediction routine, shared by a live trainer and by a published
/// snapshot: normalizes \p Rows raw feature vectors held back to back in
/// \p Xs (Rows x inputs, row-major), runs one context-free forward of
/// \p Net and writes the Rows x outputs de-normalized predictions to
/// \p Out. Reads \p Net and \p Norm only, so any number of threads may
/// call it on one packed network; its staging comes from the Workspace, so
/// the steady state allocates nothing.
void predictRows(const Network &Net, const Normalization &Norm,
                 const float *Xs, int Rows, std::vector<float> &Out);

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
  /// with \p Rand each epoch: one forward/backward and one Adam step per
  /// minibatch. Returns the final epoch's mean loss (normalized
  /// space). No-op (returns 0) on an empty dataset.
  double train(int Epochs, int BatchSize, Rng &Rand);

  /// predictRows over the live network and its statistics (the au_NN hot
  /// path; Rows == 1 is the single-call case).
  void predictRowsInto(const float *Xs, int Rows, std::vector<float> &Out);

  /// predictRowsInto for one feature vector \p X.
  std::vector<float> predict(const std::vector<float> &X);

  /// Mean |prediction - target| per output in raw target units over the
  /// dataset (resubstitution error, for quick sanity checks).
  double meanAbsError();

  Network &network() { return Net; }

  /// The dataset normalization statistics (for publication and model
  /// persistence); computes them from the dataset when not yet available.
  const Normalization &normalization();

  /// Installs normalization statistics (used when loading a saved model
  /// without its dataset).
  void setNormalization(Normalization N);

private:
  void computeNormalization();

  Network Net;
  Adam Opt;
  std::vector<Sample> Data;
  Normalization Norm; ///< Computed lazily on first train().
  bool Normalized = false;
  ForwardCtx Ctx; ///< Activations of the current minibatch.
};

} // namespace nn
} // namespace au

#endif // AU_NN_SUPERVISED_H
