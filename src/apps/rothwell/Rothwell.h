//===- apps/rothwell/Rothwell.h - Rothwell edge detector -------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the Rothwell et al. topology-driven edge detector, the
/// paper's second supervised benchmark. Unlike Canny's global hysteresis it
/// thresholds *dynamically*: each pixel is kept when its gradient magnitude
/// exceeds Alpha times the local mean magnitude, and the surviving chains
/// are filtered by a minimum component length — giving three annotated
/// parameters (Sigma, Alpha, MinLen), matching Table 1's three target
/// variables.
///
/// Scenes and scoring are shared with the Canny benchmark (both papers'
/// programs consume the same edge datasets).
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_ROTHWELL_ROTHWELL_H
#define AU_APPS_ROTHWELL_ROTHWELL_H

#include "analysis/FeatureExtraction.h"
#include "apps/canny/Canny.h"
#include "core/Engine.h"

namespace au {
namespace apps {

/// The three annotated parameters.
struct RothwellParams {
  double Sigma = 1.2;  ///< Gaussian smoothing width.
  double Alpha = 1.8;  ///< Dynamic threshold factor over the local mean.
  double MinLen = 6.0; ///< Minimum surviving chain length (pixels).
};

/// Intermediates surfaced for feature extraction.
struct RothwellTrace {
  Image Smoothed;
  Image Magnitude;
  Image LocalMean;           ///< Window-averaged magnitude.
  std::vector<float> Ratios; ///< 16-bin histogram of mag / localMean.
};

inline constexpr int RothwellHistBins = 16;

/// Runs the detector; returns a binary edge map.
Image rothwellDetect(const Image &In, const RothwellParams &P,
                     RothwellTrace *Trace = nullptr);

/// Grid-search autotuning oracle.
RothwellParams autotuneRothwell(const CannyScene &Scene);

/// Records the dependence structure of one run (for Table 1 / Alg. 1).
void rothwellProfile(analysis::Tracer &T, std::vector<std::string> &Inputs,
                     std::vector<std::string> &Targets);

/// The Raw / Med / Min comparison experiment (same shape as Canny's).
class RothwellExperiment {
public:
  RothwellExperiment(int NumTrain, int NumTest, uint64_t Seed);

  double train(analysis::SlPick Pick, int Epochs);
  double testScore(analysis::SlPick Pick);
  double baselineScore();
  double autonomizedExecSeconds(analysis::SlPick Pick);
  double baselineExecSeconds();
  size_t traceBytes(analysis::SlPick Pick) const;
  size_t modelBytes(analysis::SlPick Pick) const;

private:
  Image runAnnotated(Session &S, const CannyScene &Scene,
                     analysis::SlPick Pick, const RothwellParams &Train);
  static std::vector<float> paramFeature(const CannyScene &Scene,
                                         const RothwellTrace &Trace,
                                         analysis::SlPick Pick);
  int Idx(analysis::SlPick Pick) const { return static_cast<int>(Pick); }

  std::vector<CannyScene> TrainScenes;
  std::vector<RothwellParams> TrainOracle;
  std::vector<CannyScene> TestScenes;
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

#endif // AU_APPS_ROTHWELL_ROTHWELL_H
