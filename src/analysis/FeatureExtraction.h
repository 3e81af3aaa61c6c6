//===- analysis/FeatureExtraction.h - Alg. 1 and Alg. 2 --------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two automatic feature-variable extraction algorithms
/// (Section 4):
///
/// Algorithm 1 (supervised learning). Candidates are the program inputs and
/// their transitive dependents. A candidate correlates with a target when
/// they share a common dependent, and it is excluded when it depends on the
/// target. Candidates are ranked by the BFS distance to the first common
/// dependent — smaller distance means a more abstract, more predictive
/// feature (the paper's Min < Med < Raw finding).
///
/// Algorithm 2 (reinforcement learning). Candidates are program variables
/// that (a) are used in some function where a dependent of the target is
/// used and (b) share a dependent with the target. Their min-max-scaled
/// runtime traces are then pruned: a candidate whose trace lies within
/// Euclidean distance epsilon1 of an earlier candidate is redundant; one
/// whose trace variance is below epsilon2 is unchanging. Survivors form the
/// combined feature set.
///
//===----------------------------------------------------------------------===//

#ifndef AU_ANALYSIS_FEATUREEXTRACTION_H
#define AU_ANALYSIS_FEATUREEXTRACTION_H

#include "analysis/Tracer.h"

#include <map>
#include <string>
#include <vector>

namespace au {
namespace analysis {

/// One ranked supervised-learning feature.
struct RankedFeature {
  std::string Var;
  int Distance; ///< BFS distance to the first common dependent.
};

/// Per-target ranked feature lists, keyed by target-variable name.
using SlFeatureMap = std::map<std::string, std::vector<RankedFeature>>;

/// Algorithm 1: supervised-learning feature extraction.
/// \p Inputs is the paper's In set; \p Targets is Trg; the dependence graph
/// comes from \p T. Features are sorted by ascending distance (stable on the
/// candidate discovery order for determinism).
SlFeatureMap extractSlFeatures(const Tracer &T,
                               const std::vector<std::string> &Inputs,
                               const std::vector<std::string> &Targets);

/// Selection policies over a ranked SL feature list, matching the paper's
/// Raw / Med / Min experiment versions.
enum class SlPick { Min, Med, Raw };

/// Picks the feature at the minimum / median / maximum distance.
/// Returns an empty string when \p Ranked is empty.
std::string pickSlFeature(const std::vector<RankedFeature> &Ranked,
                          SlPick Pick);

/// \p Base with the version's suffix ("_min", "_med", "_raw"). The three
/// versions of an SL experiment are tenants of one Engine, so each needs
/// its own model name in the shared model store.
std::string slModelName(const char *Base, SlPick Pick);

/// Diagnostics from one Algorithm 2 run (for Table 1 and the Fig. 15/16
/// pruning harness).
struct RlExtractionStats {
  int NumCandidates = 0;       ///< Correlated candidates before pruning.
  int PrunedRedundant = 0;     ///< Removed by the epsilon1 distance test.
  int PrunedUnchanging = 0;    ///< Removed by the epsilon2 variance test.
  std::vector<std::pair<std::string, std::string>>
      RedundantPairs;          ///< (kept, pruned) pairs from epsilon1.
  std::vector<std::string> UnchangingVars; ///< Pruned by epsilon2.
};

/// Algorithm 2: reinforcement-learning feature extraction for one target.
/// Returns surviving feature names in discovery order. \p Stats, when
/// non-null, receives pruning diagnostics.
std::vector<std::string>
extractRlFeatures(const Tracer &T, const std::string &Target, double Epsilon1,
                  double Epsilon2, RlExtractionStats *Stats = nullptr);

/// Runs Algorithm 2 for every target and combines the per-target sets in
/// discovery order without duplicates — the paper combines all feature
/// variables to predict all targets "due to the large overlap".
std::vector<std::string>
extractRlFeaturesCombined(const Tracer &T,
                          const std::vector<std::string> &Targets,
                          double Epsilon1, double Epsilon2,
                          RlExtractionStats *Stats = nullptr);

} // namespace analysis
} // namespace au

#endif // AU_ANALYSIS_FEATUREEXTRACTION_H
