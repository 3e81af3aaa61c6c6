//===- apps/sphinx/Sphinx.h - Speech-recognition benchmark -----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the CMU Sphinx speech-recognition benchmark: an isolated-
/// word recognizer that matches an utterance's acoustic feature sequence
/// against word templates with beam-pruned dynamic time warping. Its two
/// annotated parameters — the pruning beam width and the spectral noise
/// floor — trade accuracy against cost, and their ideal values depend on
/// the utterance's speaking rate and noise level, matching the paper's
/// two Sphinx target variables.
///
/// The score per utterance rewards a correct recognition and mildly
/// penalizes the DTW cells expanded, so a wastefully wide beam is not free.
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_SPHINX_SPHINX_H
#define AU_APPS_SPHINX_SPHINX_H

#include "analysis/FeatureExtraction.h"
#include "core/Engine.h"

#include <array>
#include <cstdint>
#include <vector>

namespace au {
namespace apps {

/// The two annotated parameters. The defaults are the conservative
/// shipped configuration — a wide beam that never loses the correct path
/// and no endpoint trimming — safe on any corpus but wasteful and noisy,
/// which is exactly why per-input prediction helps.
struct SphinxParams {
  double Beam = 6.0;       ///< DTW pruning beam width.
  double NoiseFloor = 0.0; ///< Endpoint-detection noise floor.
};

/// One acoustic frame (a tiny stand-in for an MFCC vector).
using SphinxFrame = std::array<float, 2>;

/// Vocabulary size.
inline constexpr int SphinxVocab = 8;

/// One synthetic utterance with its true word.
struct SphinxUtterance {
  std::vector<SphinxFrame> Frames;
  int TrueWord = 0;
  double Rate = 1.0;  ///< Speaking-rate warp used to produce it.
  double Noise = 0.0; ///< Additive noise level used to produce it.
};

/// The deterministic template for a vocabulary word.
std::vector<SphinxFrame> sphinxTemplate(int Word);

/// Generates one deterministic utterance.
SphinxUtterance makeSphinxUtterance(uint64_t Seed);

/// Recognition outcome.
struct SphinxResult {
  int Word = -1;
  long CellsExpanded = 0;
};

/// Runs the beam-pruned DTW recognizer.
SphinxResult sphinxRecognize(const SphinxUtterance &U, const SphinxParams &P);

/// Utterance score in [0, 1]: 0 when wrong, otherwise 1 minus a small
/// cost term for the expanded DTW cells. Higher is better.
double sphinxScore(const SphinxUtterance &U, const SphinxParams &P);

/// Grid-search autotuning oracle.
SphinxParams autotuneSphinx(const SphinxUtterance &U);

/// Records the dependence structure of one run (Table 1 / Alg. 1).
void sphinxProfile(analysis::Tracer &T, std::vector<std::string> &Inputs,
                   std::vector<std::string> &Targets);

/// The Raw / Med / Min comparison experiment.
class SphinxExperiment {
public:
  SphinxExperiment(int NumTrain, int NumTest, uint64_t Seed);

  double train(analysis::SlPick Pick, int Epochs);
  double testScore(analysis::SlPick Pick);
  double baselineScore();
  double autonomizedExecSeconds(analysis::SlPick Pick);
  double baselineExecSeconds();
  size_t traceBytes(analysis::SlPick Pick) const;
  size_t modelBytes(analysis::SlPick Pick) const;

private:
  double runAnnotated(Session &S, const SphinxUtterance &U,
                      analysis::SlPick Pick, const SphinxParams &Train);
  static std::vector<float> paramFeature(const SphinxUtterance &U,
                                         analysis::SlPick Pick);
  int Idx(analysis::SlPick Pick) const { return static_cast<int>(Pick); }

  std::vector<SphinxUtterance> TrainSet;
  std::vector<SphinxParams> TrainOracle;
  std::vector<SphinxUtterance> TestSet;
  uint64_t Seed;
  // One engine hosts the three versions as tenants: each version is a
  // Session with its own <sigma, pi> and its own model name in theta.
  Engine Eng;
  std::vector<std::unique_ptr<Session>> Sessions{3};
  size_t TraceBytesPer[3] = {0, 0, 0};
  size_t ModelBytesPer[3] = {0, 0, 0};
};

} // namespace apps
} // namespace au

#endif // AU_APPS_SPHINX_SPHINX_H
