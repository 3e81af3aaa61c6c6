//===- analysis/FeatureExtraction.cpp - Alg. 1 and Alg. 2 ----------------===//

#include "analysis/FeatureExtraction.h"

#include "support/Statistics.h"

#include <algorithm>
#include <cassert>

using namespace au;
using namespace au::analysis;

SlFeatureMap
au::analysis::extractSlFeatures(const Tracer &T,
                                const std::vector<std::string> &Inputs,
                                const std::vector<std::string> &Targets) {
  const DependenceGraph &G = T.graph();

  // Candidate <- In ∪ dep(In), in deterministic discovery order.
  std::vector<NodeId> Candidates;
  std::vector<bool> InCandidates(static_cast<size_t>(G.numNodes()), false);
  auto AddCandidate = [&](NodeId N) {
    if (N >= 0 && !InCandidates[N]) {
      InCandidates[N] = true;
      Candidates.push_back(N);
    }
  };
  for (const std::string &In : Inputs) {
    NodeId N = G.lookup(In);
    assert(N >= 0 && "unknown input variable");
    AddCandidate(N);
    for (NodeId D : G.dependents(N))
      AddCandidate(D);
  }

  SlFeatureMap Features;
  for (const std::string &TargetName : Targets) {
    NodeId V = G.lookup(TargetName);
    assert(V >= 0 && "unknown target variable");
    std::vector<RankedFeature> &Ranked = Features[TargetName];
    for (NodeId W : Candidates) {
      if (W == V)
        continue;
      // Exclude candidates that depend on the target: their values are not
      // available before the prediction is needed.
      if (G.dependsOn(W, V))
        continue;
      std::vector<NodeId> Common = G.commonDependents(W, V);
      if (Common.empty())
        continue;
      int Dist = G.bfsDistanceToAny(W, Common);
      assert(Dist >= 0 && "common dependent must be reachable");
      Ranked.push_back({G.name(W), Dist});
    }
    std::stable_sort(Ranked.begin(), Ranked.end(),
                     [](const RankedFeature &A, const RankedFeature &B) {
                       return A.Distance < B.Distance;
                     });
  }
  return Features;
}

std::string au::analysis::pickSlFeature(const std::vector<RankedFeature> &Ranked,
                                        SlPick Pick) {
  if (Ranked.empty())
    return {};
  switch (Pick) {
  case SlPick::Min:
    return Ranked.front().Var;
  case SlPick::Med:
    return Ranked[Ranked.size() / 2].Var;
  case SlPick::Raw:
    return Ranked.back().Var;
  }
  assert(false && "unknown SlPick");
  return {};
}

std::string au::analysis::slModelName(const char *Base, SlPick Pick) {
  static const char *Suffix[] = {"_min", "_med", "_raw"};
  return std::string(Base) + Suffix[static_cast<int>(Pick)];
}

std::vector<std::string>
au::analysis::extractRlFeatures(const Tracer &T, const std::string &Target,
                                double Epsilon1, double Epsilon2,
                                RlExtractionStats *Stats) {
  const DependenceGraph &G = T.graph();
  NodeId V = G.lookup(Target);
  assert(V >= 0 && "unknown target variable");

  // UseFunc[dep(v)]: the union of usage functions of v's dependents.
  std::set<std::string> TargetDepFuncs;
  for (NodeId D : G.dependents(V)) {
    const std::set<std::string> &Fs = T.useFunctions(G.name(D));
    TargetDepFuncs.insert(Fs.begin(), Fs.end());
  }

  // Candidate map in discovery order: w != v, w has an observed runtime
  // value trace (untraced pseudo-nodes carry no state to extract), shared
  // use function with dep(v), and shared dependent with v.
  std::vector<std::string> CandidateNames;
  std::vector<std::vector<double>> CandidateTraces;
  for (const std::string &W : T.allVariables()) {
    NodeId WId = G.lookup(W);
    if (WId == V || T.trace(W).empty())
      continue;
    const std::set<std::string> &WFuncs = T.useFunctions(W);
    bool SharesFunc = std::any_of(
        WFuncs.begin(), WFuncs.end(),
        [&](const std::string &F) { return TargetDepFuncs.count(F) != 0; });
    if (!SharesFunc)
      continue;
    if (!G.shareDependent(WId, V))
      continue;
    CandidateNames.push_back(W);
    CandidateTraces.push_back(minMaxScale(T.trace(W)));
  }
  if (Stats)
    Stats->NumCandidates += static_cast<int>(CandidateNames.size());

  // Pruning: for each surviving candidate w, delete later candidates whose
  // scaled trace is within Epsilon1 of w's; then drop w itself when its
  // trace variance is at most Epsilon2.
  std::vector<bool> Deleted(CandidateNames.size(), false);
  std::vector<std::string> Features;
  for (size_t WI = 0; WI != CandidateNames.size(); ++WI) {
    if (Deleted[WI])
      continue;
    for (size_t XI = 0; XI != CandidateNames.size(); ++XI) {
      if (XI == WI || Deleted[XI])
        continue;
      if (euclideanDistance(CandidateTraces[WI], CandidateTraces[XI]) <=
          Epsilon1) {
        Deleted[XI] = true;
        if (Stats) {
          ++Stats->PrunedRedundant;
          Stats->RedundantPairs.emplace_back(CandidateNames[WI],
                                             CandidateNames[XI]);
        }
      }
    }
    if (variance(CandidateTraces[WI]) <= Epsilon2) {
      if (Stats) {
        ++Stats->PrunedUnchanging;
        Stats->UnchangingVars.push_back(CandidateNames[WI]);
      }
      continue;
    }
    Features.push_back(CandidateNames[WI]);
  }
  return Features;
}

std::vector<std::string> au::analysis::extractRlFeaturesCombined(
    const Tracer &T, const std::vector<std::string> &Targets, double Epsilon1,
    double Epsilon2, RlExtractionStats *Stats) {
  std::vector<std::string> Combined;
  std::set<std::string> Seen(Targets.begin(), Targets.end());
  // Seeding Seen with the targets keeps one target variable from becoming
  // a feature of another: target values are exactly what the model must
  // produce, so they are unavailable before prediction.
  for (const std::string &Target : Targets)
    for (const std::string &F :
         extractRlFeatures(T, Target, Epsilon1, Epsilon2, Stats))
      if (Seen.insert(F).second)
        Combined.push_back(F);
  return Combined;
}
