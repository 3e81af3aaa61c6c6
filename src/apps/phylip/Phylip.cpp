//===- apps/phylip/Phylip.cpp - Phylogeny-inference benchmark ------------===//

#include "apps/phylip/Phylip.h"

#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

using namespace au;
using namespace au::apps;
using analysis::SlPick;
using analysis::slModelName;

static constexpr int NumTaxa = PhylipDataset::NumTaxa;
static const char Bases[4] = {'A', 'C', 'G', 'T'};

/// Index of a base character; -1 for gaps.
static int baseIndex(char C) {
  switch (C) {
  case 'A':
    return 0;
  case 'C':
    return 1;
  case 'G':
    return 2;
  case 'T':
    return 3;
  default:
    return -1;
  }
}

/// True when a substitution between two bases is a transition (A<->G,
/// C<->T).
static bool isTransition(int A, int B) {
  return (A == 0 && B == 2) || (A == 2 && B == 0) || (A == 1 && B == 3) ||
         (A == 3 && B == 1);
}

PhylipDataset au::apps::makePhylipDataset(uint64_t Seed, int SeqLen) {
  Rng R(Seed * 0x9e3779b9u + 3);
  PhylipDataset D;
  D.TrueAlpha = R.uniform(0.3, 3.0);
  D.TrueKappa = R.uniform(1.0, 5.0);
  D.GapRate = R.uniform(0.0, 0.22);

  // Random rooted binary tree: join random active clusters.
  int TotalNodes = 2 * NumTaxa - 1;
  D.TrueParent.assign(TotalNodes, -1);
  std::vector<int> Active(NumTaxa);
  for (int I = 0; I < NumTaxa; ++I)
    Active[I] = I;
  std::vector<double> BranchLen(TotalNodes, 0.0);
  int NextId = NumTaxa;
  while (Active.size() > 1) {
    size_t AI = R.uniformInt(Active.size());
    int A = Active[AI];
    Active.erase(Active.begin() + AI);
    size_t BI = R.uniformInt(Active.size());
    int B = Active[BI];
    Active.erase(Active.begin() + BI);
    D.TrueParent[A] = NextId;
    D.TrueParent[B] = NextId;
    BranchLen[A] = R.uniform(0.04, 0.30);
    BranchLen[B] = R.uniform(0.04, 0.30);
    Active.push_back(NextId++);
  }

  // Per-site rates: heavier dispersion for smaller TrueAlpha.
  std::vector<double> Rates(SeqLen);
  for (double &Rate : Rates) {
    double U = std::max(1e-9, R.uniform());
    Rate = std::pow(-std::log(U), 1.0 / D.TrueAlpha);
  }

  // Evolve sequences root-to-leaves.
  std::vector<std::string> NodeSeq(TotalNodes);
  std::string &Root = NodeSeq[TotalNodes - 1];
  Root.resize(SeqLen);
  for (char &C : Root)
    C = Bases[R.uniformInt(4)];
  // Children lists from the parent vector, processed in decreasing id
  // order (parents have larger ids than children).
  for (int Node = TotalNodes - 2; Node >= 0; --Node) {
    const std::string &Parent = NodeSeq[D.TrueParent[Node]];
    std::string Seq = Parent;
    for (int Site = 0; Site < SeqLen; ++Site) {
      double PSub = 1.0 - std::exp(-Rates[Site] * BranchLen[Node]);
      if (!R.chance(PSub))
        continue;
      int Cur = baseIndex(Seq[Site]);
      // Transition with probability kappa / (kappa + 2).
      if (R.chance(D.TrueKappa / (D.TrueKappa + 2.0))) {
        static const int TransitionOf[4] = {2, 3, 0, 1};
        Seq[Site] = Bases[TransitionOf[Cur]];
      } else {
        // One of the two transversions.
        int Pick = static_cast<int>(R.uniformInt(2));
        int Choice = -1;
        for (int B = 0; B < 4; ++B) {
          if (B == Cur || isTransition(Cur, B))
            continue;
          if (Pick-- == 0) {
            Choice = B;
            break;
          }
        }
        assert(Choice >= 0 && "transversion selection failed");
        Seq[Site] = Bases[Choice];
      }
    }
    NodeSeq[Node] = std::move(Seq);
  }

  D.Sequences.resize(NumTaxa);
  for (int Taxon = 0; Taxon < NumTaxa; ++Taxon) {
    D.Sequences[Taxon] = NodeSeq[Taxon];
    for (char &C : D.Sequences[Taxon])
      if (R.chance(D.GapRate))
        C = '-';
  }
  return D;
}

std::vector<double> au::apps::phylipDistances(const PhylipDataset &D,
                                              const PhylipParams &P) {
  int SeqLen = static_cast<int>(D.Sequences.front().size());
  // Columns whose gap fraction exceeds GapThresh are excluded entirely.
  std::vector<bool> Usable(SeqLen, true);
  for (int Site = 0; Site < SeqLen; ++Site) {
    int Gaps = 0;
    for (int Taxon = 0; Taxon < NumTaxa; ++Taxon)
      Gaps += D.Sequences[Taxon][Site] == '-';
    Usable[Site] = Gaps <= P.GapThresh * NumTaxa;
  }

  std::vector<double> Dist(static_cast<size_t>(NumTaxa) * NumTaxa, 0.0);
  for (int A = 0; A < NumTaxa; ++A)
    for (int B = A + 1; B < NumTaxa; ++B) {
      int Ts = 0, Tv = 0, N = 0;
      for (int Site = 0; Site < SeqLen; ++Site) {
        if (!Usable[Site])
          continue;
        int Ca = baseIndex(D.Sequences[A][Site]);
        int Cb = baseIndex(D.Sequences[B][Site]);
        if (Ca < 0 || Cb < 0)
          continue;
        ++N;
        if (Ca == Cb)
          continue;
        if (isTransition(Ca, Cb))
          ++Ts;
        else
          ++Tv;
      }
      double Dd = 3.0; // Saturated fallback.
      if (N > 0) {
        // Kappa-weighted mismatch fraction, then gamma-corrected
        // Jukes-Cantor. Matching kappa/alpha to the generating process
        // restores distance additivity.
        double PEff = (P.Kappa * Ts + Tv) /
                      (static_cast<double>(N) * (P.Kappa + 2.0) / 3.0);
        PEff = clamp(PEff, 0.0, 0.70);
        double Inner = 1.0 - 4.0 * PEff / 3.0;
        Dd = 0.75 * P.Alpha * (std::pow(Inner, -1.0 / P.Alpha) - 1.0);
      }
      Dist[static_cast<size_t>(A) * NumTaxa + B] = Dd;
      Dist[static_cast<size_t>(B) * NumTaxa + A] = Dd;
    }
  return Dist;
}

std::vector<int> au::apps::neighborJoin(std::vector<double> Dist,
                                        int NumLeaves) {
  assert(NumLeaves >= 3 && "neighbor joining needs at least three taxa");
  // Active node ids and a growing distance map over them.
  std::vector<int> Active(NumLeaves);
  for (int I = 0; I < NumLeaves; ++I)
    Active[I] = I;
  int MaxNodes = 2 * NumLeaves - 1;
  std::vector<int> Parent(MaxNodes, -1);
  // Dense distance matrix indexed by node id (grown as nodes appear).
  std::vector<double> D(static_cast<size_t>(MaxNodes) * MaxNodes, 0.0);
  for (int A = 0; A < NumLeaves; ++A)
    for (int B = 0; B < NumLeaves; ++B)
      D[static_cast<size_t>(A) * MaxNodes + B] =
          Dist[static_cast<size_t>(A) * NumLeaves + B];
  auto Dd = [&](int A, int B) -> double & {
    return D[static_cast<size_t>(A) * MaxNodes + B];
  };

  int NextId = NumLeaves;
  while (Active.size() > 3) {
    int N = static_cast<int>(Active.size());
    std::vector<double> RowSum(N, 0.0);
    for (int I = 0; I < N; ++I)
      for (int J = 0; J < N; ++J)
        RowSum[I] += Dd(Active[I], Active[J]);
    // Minimize the Q criterion.
    double BestQ = 1e30;
    int BI = 0, BJ = 1;
    for (int I = 0; I < N; ++I)
      for (int J = I + 1; J < N; ++J) {
        double Q = (N - 2) * Dd(Active[I], Active[J]) - RowSum[I] - RowSum[J];
        if (Q < BestQ) {
          BestQ = Q;
          BI = I;
          BJ = J;
        }
      }
    int A = Active[BI], B = Active[BJ];
    int U = NextId++;
    Parent[A] = U;
    Parent[B] = U;
    // Distances from the new node.
    for (int K = 0; K < N; ++K) {
      int C = Active[K];
      if (C == A || C == B)
        continue;
      double DUC = 0.5 * (Dd(A, C) + Dd(B, C) - Dd(A, B));
      Dd(U, C) = Dd(C, U) = std::max(0.0, DUC);
    }
    // Replace A and B by U in the active set.
    Active.erase(Active.begin() + BJ);
    Active.erase(Active.begin() + BI);
    Active.push_back(U);
  }
  // Join the final three under the root.
  int Root = NextId++;
  for (int Node : Active)
    Parent[Node] = Root;
  Parent.resize(NextId);
  return Parent;
}

/// Collects the canonical non-trivial bipartition masks of a parent-vector
/// tree over \p NumLeaves leaves (leaf ids 0..NumLeaves-1).
static std::set<uint32_t> bipartitions(const std::vector<int> &Parent,
                                       int NumLeaves) {
  int Total = static_cast<int>(Parent.size());
  std::vector<uint32_t> Mask(Total, 0);
  for (int Leaf = 0; Leaf < NumLeaves; ++Leaf)
    Mask[Leaf] = 1u << Leaf;
  // Children have smaller ids than parents in both our encodings.
  for (int Node = 0; Node < Total; ++Node)
    if (Parent[Node] >= 0)
      Mask[Parent[Node]] |= Mask[Node];
  uint32_t Full = (1u << NumLeaves) - 1;
  std::set<uint32_t> Out;
  for (int Node = NumLeaves; Node < Total; ++Node) {
    if (Parent[Node] < 0)
      continue; // Root edge is not a bipartition.
    uint32_t M = Mask[Node];
    int Pop = __builtin_popcount(M);
    if (Pop < 2 || Pop > NumLeaves - 2)
      continue;
    Out.insert(std::min(M, Full ^ M));
  }
  return Out;
}

double au::apps::robinsonFoulds(const std::vector<int> &A,
                                const std::vector<int> &B, int NumLeaves) {
  std::set<uint32_t> SA = bipartitions(A, NumLeaves);
  std::set<uint32_t> SB = bipartitions(B, NumLeaves);
  if (SA.empty() && SB.empty())
    return 0.0;
  int Sym = 0;
  for (uint32_t M : SA)
    Sym += SB.count(M) == 0;
  for (uint32_t M : SB)
    Sym += SA.count(M) == 0;
  return static_cast<double>(Sym) /
         static_cast<double>(SA.size() + SB.size());
}

double au::apps::phylipScore(const PhylipDataset &D, const PhylipParams &P) {
  std::vector<int> Tree = neighborJoin(phylipDistances(D, P), NumTaxa);
  return robinsonFoulds(Tree, D.TrueParent, NumTaxa);
}

PhylipParams au::apps::autotunePhylip(const PhylipDataset &D) {
  static const double Alphas[] = {0.4, 0.8, 1.5, 3.0};
  static const double Kappas[] = {1.0, 2.0, 4.0};
  static const double Gaps[] = {0.15, 0.4, 0.7};
  PhylipParams Best;
  double BestScore = 1e30;
  for (double A : Alphas)
    for (double K : Kappas)
      for (double G : Gaps) {
        PhylipParams P{A, K, G};
        double Score = phylipScore(D, P);
        if (Score < BestScore) {
          BestScore = Score;
          Best = P;
        }
      }
  return Best;
}

void au::apps::phylipProfile(analysis::Tracer &T,
                             std::vector<std::string> &Inputs,
                             std::vector<std::string> &Targets) {
  PhylipDataset D = makePhylipDataset(606);
  PhylipParams P;
  double Score = phylipScore(D, P);

  T.markInput("sequences");
  T.recordDefValue("alpha", {}, "computeDist", P.Alpha);
  T.recordDefValue("kappa", {}, "computeDist", P.Kappa);
  T.recordDefValue("gapThresh", {}, "filterColumns", P.GapThresh);
  T.recordDef("usableCols", {"sequences", "gapThresh"}, "filterColumns");
  T.recordDef("mismatchCnt", {"sequences", "usableCols"}, "computeDist");
  T.recordDef("tsCnt", {"sequences", "usableCols"}, "computeDist");
  T.recordDef("pDist", {"mismatchCnt", "tsCnt", "kappa"}, "computeDist");
  T.recordDef("distMat", {"pDist", "alpha"}, "computeDist");
  T.recordDef("qMat", {"distMat"}, "neighborJoin");
  T.recordDef("tree", {"qMat", "distMat"}, "neighborJoin");
  T.recordDefValue("result", {"tree"}, "main", Score);

  Inputs = {"sequences"};
  Targets = {"alpha", "kappa", "gapThresh"};
}

//===----------------------------------------------------------------------===//
// The experiment driver
//===----------------------------------------------------------------------===//

PhylipExperiment::PhylipExperiment(int NumTrain, int NumTest, uint64_t S)
    : Seed(S) {
  for (int I = 0; I < NumTrain; ++I) {
    TrainSets.push_back(makePhylipDataset(Seed + 100 + I));
    TrainOracle.push_back(autotunePhylip(TrainSets.back()));
  }
  for (int I = 0; I < NumTest; ++I)
    TestSets.push_back(makePhylipDataset(Seed + 40000 + I));
  for (auto &Sn : Sessions)
    Sn = std::make_unique<Session>(Eng, Mode::TR);
}

std::vector<float> PhylipExperiment::paramFeature(const PhylipDataset &D,
                                                  SlPick Pick) {
  int SeqLen = static_cast<int>(D.Sequences.front().size());
  switch (Pick) {
  case SlPick::Min: {
    // Compact alignment statistics computed deep in the pipeline: the
    // pairwise p-distance histogram plus transition/gap fractions.
    std::vector<float> F(16, 0.0f);
    int Pairs = 0;
    double TsTotal = 0.0, MismatchTotal = 0.0;
    for (int A = 0; A < NumTaxa; ++A)
      for (int B = A + 1; B < NumTaxa; ++B) {
        int Mis = 0, Ts = 0, N = 0;
        for (int Site = 0; Site < SeqLen; ++Site) {
          int Ca = baseIndex(D.Sequences[A][Site]);
          int Cb = baseIndex(D.Sequences[B][Site]);
          if (Ca < 0 || Cb < 0)
            continue;
          ++N;
          if (Ca != Cb) {
            ++Mis;
            Ts += isTransition(Ca, Cb);
          }
        }
        double Pd = N ? static_cast<double>(Mis) / N : 0.0;
        int Bin = std::min(7, static_cast<int>(Pd / 0.75 * 8));
        F[Bin] += 1.0f;
        TsTotal += Mis ? static_cast<double>(Ts) / Mis : 0.0;
        MismatchTotal += Pd;
        ++Pairs;
      }
    for (int B = 0; B < 8; ++B)
      F[B] /= static_cast<float>(Pairs);
    F[8] = static_cast<float>(TsTotal / Pairs);
    F[9] = static_cast<float>(MismatchTotal / Pairs);
    int Gaps = 0;
    for (const std::string &S : D.Sequences)
      for (char C : S)
        Gaps += C == '-';
    F[10] = static_cast<float>(Gaps) / (NumTaxa * SeqLen);
    // Base composition.
    int Counts[4] = {0, 0, 0, 0};
    int Total = 0;
    for (const std::string &S : D.Sequences)
      for (char C : S) {
        int B = baseIndex(C);
        if (B >= 0) {
          ++Counts[B];
          ++Total;
        }
      }
    for (int B = 0; B < 4; ++B)
      F[11 + B] = static_cast<float>(Counts[B]) / std::max(1, Total);
    F[15] = static_cast<float>(SeqLen) / 512.0f;
    return F;
  }
  case SlPick::Med: {
    // The raw pairwise mismatch and transition fractions (the distance
    // matrix before correction).
    std::vector<float> F;
    for (int A = 0; A < NumTaxa; ++A)
      for (int B = A + 1; B < NumTaxa; ++B) {
        int Mis = 0, Ts = 0, N = 0;
        for (int Site = 0; Site < SeqLen; ++Site) {
          int Ca = baseIndex(D.Sequences[A][Site]);
          int Cb = baseIndex(D.Sequences[B][Site]);
          if (Ca < 0 || Cb < 0)
            continue;
          ++N;
          if (Ca != Cb) {
            ++Mis;
            Ts += isTransition(Ca, Cb);
          }
        }
        F.push_back(N ? static_cast<float>(Mis) / N : 0.0f);
        F.push_back(Mis ? static_cast<float>(Ts) / Mis : 0.0f);
      }
    return F;
  }
  case SlPick::Raw: {
    // Raw encoded columns of the first four taxa.
    std::vector<float> F;
    int Cols = std::min(SeqLen, 32);
    for (int Taxon = 0; Taxon < 4; ++Taxon)
      for (int Site = 0; Site < Cols; ++Site) {
        int B = baseIndex(D.Sequences[Taxon][Site]);
        F.push_back(B < 0 ? 0.0f : 0.2f * (B + 1));
      }
    return F;
  }
  }
  assert(false && "unknown pick");
  return {};
}

double PhylipExperiment::runAnnotated(Session &S, const PhylipDataset &D,
                                      SlPick Pick,
                                      const PhylipParams &Train) {
  ModelConfig Cfg;
  Cfg.Name = slModelName("PhyNN", Pick);
  Cfg.HiddenLayers = {48, 24};
  Cfg.Seed = Seed + 4;
  S.config(Cfg);

  PhylipParams P = Train;
  std::vector<float> Feat = paramFeature(D, Pick);
  S.extract("FEAT", Feat.size(), Feat.data());
  S.nn(Cfg.Name, "FEAT", {{"ALPHA", 1}, {"KAPPA", 1}, {"GAPT", 1}});
  float AlphaV = static_cast<float>(P.Alpha);
  float KappaV = static_cast<float>(P.Kappa);
  float GapV = static_cast<float>(P.GapThresh);
  S.writeBack("ALPHA", 1, &AlphaV);
  S.writeBack("KAPPA", 1, &KappaV);
  S.writeBack("GAPT", 1, &GapV);
  P.Alpha = clamp(AlphaV, 0.3, 3.2);
  P.Kappa = clamp(KappaV, 1.0, 4.5);
  P.GapThresh = clamp(GapV, 0.1, 0.75);

  return phylipScore(D, P);
}

double PhylipExperiment::train(SlPick Pick, int Epochs) {
  Session &S = *Sessions[Idx(Pick)];
  assert(S.mode() == Mode::TR && "training twice on the same version");
  std::string ModelName = slModelName("PhyNN", Pick);
  Timer T;
  for (size_t I = 0; I != TrainSets.size(); ++I)
    runAnnotated(S, TrainSets[I], Pick, TrainOracle[I]);
  S.trainSupervised(ModelName, Epochs, 16);
  double Secs = T.seconds();
  TraceBytesPer[Idx(Pick)] = S.stats().traceBytes();
  ModelBytesPer[Idx(Pick)] = S.getModel(ModelName)->modelSizeBytes();
  S.switchMode(Mode::TS);
  return Secs;
}

double PhylipExperiment::testScore(SlPick Pick) {
  Session &S = *Sessions[Idx(Pick)];
  assert(S.mode() == Mode::TS && "test before train");
  std::vector<double> Scores;
  for (const PhylipDataset &D : TestSets)
    Scores.push_back(runAnnotated(S, D, Pick, PhylipParams()));
  return mean(Scores);
}

double PhylipExperiment::baselineScore() {
  std::vector<double> Scores;
  for (const PhylipDataset &D : TestSets)
    Scores.push_back(phylipScore(D, PhylipParams()));
  return mean(Scores);
}

double PhylipExperiment::autonomizedExecSeconds(SlPick Pick) {
  Session &S = *Sessions[Idx(Pick)];
  Timer T;
  for (const PhylipDataset &D : TestSets)
    runAnnotated(S, D, Pick, PhylipParams());
  return T.seconds() / static_cast<double>(TestSets.size());
}

double PhylipExperiment::baselineExecSeconds() {
  Timer T;
  for (const PhylipDataset &D : TestSets)
    phylipScore(D, PhylipParams());
  return T.seconds() / static_cast<double>(TestSets.size());
}

size_t PhylipExperiment::traceBytes(SlPick Pick) const {
  return TraceBytesPer[static_cast<int>(Pick)];
}

size_t PhylipExperiment::modelBytes(SlPick Pick) const {
  return ModelBytesPer[static_cast<int>(Pick)];
}
