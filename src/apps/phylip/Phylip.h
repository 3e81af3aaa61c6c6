//===- apps/phylip/Phylip.h - Phylogeny-inference benchmark ----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the PHYLIP phylogeny-inference benchmark: neighbor-joining
/// tree reconstruction from DNA sequences. Sequences are synthesized by
/// evolving a random true tree under a Kimura-style model with gamma rate
/// heterogeneity and random gaps; the program reconstructs the tree from
/// gamma-corrected pairwise distances. Its three annotated parameters —
/// the gamma shape Alpha, the transition/transversion weight Kappa, and the
/// gap-column exclusion threshold GapThresh — each correspond to a hidden
/// generator property, so the ideal values genuinely vary per input.
///
/// The paper's Phylip score is lower-is-better; here it is the normalized
/// Robinson-Foulds distance between the inferred and the true tree.
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_PHYLIP_PHYLIP_H
#define AU_APPS_PHYLIP_PHYLIP_H

#include "analysis/FeatureExtraction.h"
#include "core/Engine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace au {
namespace apps {

/// The three annotated parameters of the distance computation.
struct PhylipParams {
  double Alpha = 1.0;     ///< Gamma shape for rate heterogeneity.
  double Kappa = 2.0;     ///< Transition/transversion weight.
  double GapThresh = 0.5; ///< Max gap fraction before a column is dropped.
};

/// A synthetic alignment with its true tree.
struct PhylipDataset {
  static constexpr int NumTaxa = 12;
  std::vector<std::string> Sequences; ///< Characters ACGT and '-' (gap).
  /// True tree as a parent vector over 2*NumTaxa-1 nodes (leaves first,
  /// root last).
  std::vector<int> TrueParent;
  double TrueAlpha = 1.0;
  double TrueKappa = 2.0;
  double GapRate = 0.0;
};

/// Generates one deterministic dataset.
PhylipDataset makePhylipDataset(uint64_t Seed, int SeqLen = 240);

/// Builds the gamma/Kimura-corrected distance matrix (NumTaxa x NumTaxa,
/// row-major).
std::vector<double> phylipDistances(const PhylipDataset &D,
                                    const PhylipParams &P);

/// Neighbor-joining over a distance matrix; returns a parent vector in the
/// same encoding as PhylipDataset::TrueParent.
std::vector<int> neighborJoin(std::vector<double> Dist, int NumTaxa);

/// Normalized Robinson-Foulds distance in [0, 1] between two parent-vector
/// trees over the same leaf set (0 = identical topologies).
double robinsonFoulds(const std::vector<int> &A, const std::vector<int> &B,
                      int NumTaxa);

/// End-to-end program run: distances + NJ + RF against the truth.
/// Lower is better.
double phylipScore(const PhylipDataset &D, const PhylipParams &P);

/// Grid-search autotuning oracle (minimizes the score).
PhylipParams autotunePhylip(const PhylipDataset &D);

/// Records the dependence structure of one run (Table 1 / Alg. 1).
void phylipProfile(analysis::Tracer &T, std::vector<std::string> &Inputs,
                   std::vector<std::string> &Targets);

/// The Raw / Med / Min comparison experiment.
class PhylipExperiment {
public:
  PhylipExperiment(int NumTrain, int NumTest, uint64_t Seed);

  double train(analysis::SlPick Pick, int Epochs);
  /// Mean RF distance (lower is better).
  double testScore(analysis::SlPick Pick);
  double baselineScore();
  double autonomizedExecSeconds(analysis::SlPick Pick);
  double baselineExecSeconds();
  size_t traceBytes(analysis::SlPick Pick) const;
  size_t modelBytes(analysis::SlPick Pick) const;

private:
  double runAnnotated(Session &S, const PhylipDataset &D,
                      analysis::SlPick Pick, const PhylipParams &Train);
  static std::vector<float> paramFeature(const PhylipDataset &D,
                                         analysis::SlPick Pick);
  int Idx(analysis::SlPick Pick) const { return static_cast<int>(Pick); }

  std::vector<PhylipDataset> TrainSets;
  std::vector<PhylipParams> TrainOracle;
  std::vector<PhylipDataset> TestSets;
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

#endif // AU_APPS_PHYLIP_PHYLIP_H
