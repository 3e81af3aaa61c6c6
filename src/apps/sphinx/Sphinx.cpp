//===- apps/sphinx/Sphinx.cpp - Speech-recognition benchmark -------------===//

#include "apps/sphinx/Sphinx.h"

#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace au;
using namespace au::apps;
using analysis::SlPick;
using analysis::slModelName;

static constexpr int TemplateLen = 14;

std::vector<SphinxFrame> au::apps::sphinxTemplate(int Word) {
  assert(Word >= 0 && Word < SphinxVocab && "word id out of range");
  std::vector<SphinxFrame> T(TemplateLen);
  for (int I = 0; I < TemplateLen; ++I) {
    // A word is a distinctive 2-D formant trajectory with an amplitude
    // envelope that rises and decays but never drops to silence — so a
    // well-chosen endpoint threshold separates word from noise padding.
    double Env = 0.4 + 0.6 * std::sin(3.14159265 * (I + 0.5) / TemplateLen);
    T[I][0] = static_cast<float>(
        Env * std::sin(0.7 * Word + 0.55 * I + 0.2 * Word * I));
    T[I][1] = static_cast<float>(
        Env * std::cos(1.3 * Word + 0.35 * I - 0.1 * Word));
  }
  return T;
}

SphinxUtterance au::apps::makeSphinxUtterance(uint64_t Seed) {
  Rng R(Seed * 0x51b9c7u + 19);
  SphinxUtterance U;
  U.TrueWord = static_cast<int>(R.uniformInt(SphinxVocab));
  U.Rate = R.uniform(0.5, 1.9);
  U.Noise = R.uniform(0.03, 0.3);
  std::vector<SphinxFrame> T = sphinxTemplate(U.TrueWord);

  // Noise-only silence padding around the word: exactly what the noise
  // floor must suppress before DTW, or the padding aligns against word
  // content and corrupts the match.
  int PadLo = static_cast<int>(R.uniformInt(2, 6));
  int PadHi = static_cast<int>(R.uniformInt(2, 6));
  int Len = std::max(6, static_cast<int>(TemplateLen / U.Rate));
  U.Frames.resize(PadLo + Len + PadHi);
  for (int I = 0; I < PadLo + Len + PadHi; ++I)
    for (int C = 0; C < 2; ++C)
      U.Frames[I][C] = static_cast<float>(R.normal(0.0, U.Noise));
  for (int I = 0; I < Len; ++I) {
    // Linear time-warp resampling plus the additive noise already there.
    double Pos = static_cast<double>(I) / (Len - 1) * (TemplateLen - 1);
    int P0 = static_cast<int>(Pos);
    int P1 = std::min(P0 + 1, TemplateLen - 1);
    double Frac = Pos - P0;
    for (int C = 0; C < 2; ++C) {
      double V = T[P0][C] + Frac * (T[P1][C] - T[P0][C]);
      U.Frames[PadLo + I][C] += static_cast<float>(V);
    }
  }
  return U;
}

/// Front-end noise handling driven by the floor parameter: endpoint
/// detection (trim leading/trailing frames whose energy is below ~2.5x the
/// floor — silence under the assumed noise level) plus light spectral
/// subtraction on the rest. A floor matching the true noise strips exactly
/// the silence padding; too low leaves padding that corrupts the DTW
/// alignment, too high eats into the word.
static std::vector<SphinxFrame> denoise(const std::vector<SphinxFrame> &In,
                                        double Floor) {
  double Thresh = 2.2 * Floor;
  size_t Lo = 0, Hi = In.size();
  auto Mag = [&](size_t I) { return std::hypot(In[I][0], In[I][1]); };
  while (Lo + 4 < Hi && Mag(Lo) < Thresh)
    ++Lo;
  while (Hi > Lo + 4 && Mag(Hi - 1) < Thresh)
    --Hi;
  return std::vector<SphinxFrame>(In.begin() + Lo, In.begin() + Hi);
}

/// Beam-pruned DTW cost between an utterance and a template; counts the
/// DP cells expanded. Returns a large cost when the beam prunes away every
/// path.
static double dtwCost(const std::vector<SphinxFrame> &A,
                      const std::vector<SphinxFrame> &B, double Beam,
                      long &Cells) {
  const double Inf = 1e30;
  size_t N = A.size(), M = B.size();
  std::vector<double> Prev(M, Inf), Cur(M, Inf);
  auto Dist = [&](size_t I, size_t J) {
    double Dx = A[I][0] - B[J][0];
    double Dy = A[I][1] - B[J][1];
    return std::sqrt(Dx * Dx + Dy * Dy);
  };
  Prev[0] = Dist(0, 0);
  for (size_t J = 1; J < M; ++J)
    Prev[J] = Prev[J - 1] + Dist(0, J);
  for (size_t I = 1; I < N; ++I) {
    double RowBest = Inf;
    for (size_t J = 0; J < M; ++J) {
      double Best = Prev[J];
      if (J > 0) {
        Best = std::min(Best, Prev[J - 1]);
        Best = std::min(Best, Cur[J - 1]);
      }
      if (Best >= Inf) {
        Cur[J] = Inf;
        continue;
      }
      Cur[J] = Best + Dist(I, J);
      RowBest = std::min(RowBest, Cur[J]);
      ++Cells;
    }
    // Beam pruning relative to the row's best hypothesis.
    for (size_t J = 0; J < M; ++J)
      if (Cur[J] > RowBest + Beam)
        Cur[J] = Inf;
    std::swap(Prev, Cur);
    std::fill(Cur.begin(), Cur.end(), Inf);
  }
  return Prev[M - 1] / static_cast<double>(N + M);
}

SphinxResult au::apps::sphinxRecognize(const SphinxUtterance &U,
                                       const SphinxParams &P) {
  std::vector<SphinxFrame> Clean = denoise(U.Frames, P.NoiseFloor);
  SphinxResult R;
  double BestCost = 1e29;
  for (int W = 0; W < SphinxVocab; ++W) {
    std::vector<SphinxFrame> T = sphinxTemplate(W);
    double Cost = dtwCost(Clean, T, P.Beam, R.CellsExpanded);
    if (Cost < BestCost) {
      BestCost = Cost;
      R.Word = W;
    }
  }
  return R;
}

double au::apps::sphinxScore(const SphinxUtterance &U,
                             const SphinxParams &P) {
  SphinxResult R = sphinxRecognize(U, P);
  if (R.Word != U.TrueWord)
    return 0.0;
  // Full DTW would expand |U| * TemplateLen * Vocab cells.
  double MaxCells = static_cast<double>(U.Frames.size()) * TemplateLen *
                    SphinxVocab;
  return 1.0 - 0.4 * static_cast<double>(R.CellsExpanded) / MaxCells;
}

SphinxParams au::apps::autotuneSphinx(const SphinxUtterance &U) {
  static const double Beams[] = {0.4, 0.8, 1.5, 3.0, 6.0};
  static const double Floors[] = {0.0, 0.05, 0.1, 0.15};
  SphinxParams Best;
  double BestScore = -1.0;
  for (double B : Beams)
    for (double F : Floors) {
      SphinxParams P{B, F};
      // Robust objective: the setting must also survive a 25% narrower
      // beam, otherwise a slightly-off learned prediction falls off the
      // correctness cliff.
      double S = std::min(sphinxScore(U, P),
                          sphinxScore(U, {0.75 * B, F}));
      if (S > BestScore) {
        BestScore = S;
        Best = P;
      }
    }
  return Best;
}

void au::apps::sphinxProfile(analysis::Tracer &T,
                             std::vector<std::string> &Inputs,
                             std::vector<std::string> &Targets) {
  SphinxUtterance U = makeSphinxUtterance(909);
  SphinxParams P;
  double Score = sphinxScore(U, P);

  T.markInput("audio");
  T.recordDefValue("beam", {}, "dtwSearch", P.Beam);
  T.recordDefValue("noiseFloor", {}, "denoise", P.NoiseFloor);
  T.recordDef("frames", {"audio"}, "frontend");
  T.recordDef("energy", {"frames"}, "frontend");
  T.recordDef("noiseEst", {"frames"}, "frontend");
  T.recordDef("clean", {"frames", "noiseFloor"}, "denoise");
  T.recordDef("stats", {"clean", "energy", "noiseEst"}, "frontend");
  T.recordDef("lattice", {"clean", "beam"}, "dtwSearch");
  T.recordDef("bestWord", {"lattice"}, "dtwSearch");
  T.recordDefValue("result", {"bestWord", "lattice"}, "main", Score);

  Inputs = {"audio"};
  Targets = {"beam", "noiseFloor"};
}

//===----------------------------------------------------------------------===//
// The experiment driver
//===----------------------------------------------------------------------===//

SphinxExperiment::SphinxExperiment(int NumTrain, int NumTest, uint64_t S)
    : Seed(S) {
  for (int I = 0; I < NumTrain; ++I) {
    TrainSet.push_back(makeSphinxUtterance(Seed + 300 + I));
    TrainOracle.push_back(autotuneSphinx(TrainSet.back()));
  }
  for (int I = 0; I < NumTest; ++I)
    TestSet.push_back(makeSphinxUtterance(Seed + 60000 + I));
  for (auto &Sn : Sessions)
    Sn = std::make_unique<Session>(Eng, Mode::TR);
}

std::vector<float> SphinxExperiment::paramFeature(const SphinxUtterance &U,
                                                  SlPick Pick) {
  int Len = static_cast<int>(U.Frames.size());
  switch (Pick) {
  case SlPick::Min: {
    // Front-end statistics: energy, dispersion, a frame-to-frame noise
    // estimate and the utterance length — exactly what the ideal beam and
    // noise floor depend on.
    std::vector<double> Mags;
    double DiffSum = 0.0;
    for (int I = 0; I < Len; ++I) {
      Mags.push_back(std::hypot(U.Frames[I][0], U.Frames[I][1]));
      if (I > 0)
        DiffSum += std::abs(U.Frames[I][0] - U.Frames[I - 1][0]) +
                   std::abs(U.Frames[I][1] - U.Frames[I - 1][1]);
    }
    std::vector<float> F(8);
    F[0] = static_cast<float>(mean(Mags));
    F[1] = static_cast<float>(stddev(Mags));
    F[2] = static_cast<float>(DiffSum / std::max(1, Len - 1));
    F[3] = static_cast<float>(Len) / 24.0f;
    F[4] = static_cast<float>(percentile(Mags, 10));
    F[5] = static_cast<float>(percentile(Mags, 50));
    F[6] = static_cast<float>(percentile(Mags, 90));
    F[7] = static_cast<float>(Mags.front() + Mags.back());
    return F;
  }
  case SlPick::Med: {
    // The magnitude envelope resampled to 24 points.
    std::vector<float> F(24);
    for (int I = 0; I < 24; ++I) {
      double Pos = static_cast<double>(I) / 23.0 * (Len - 1);
      int P0 = static_cast<int>(Pos);
      F[I] = std::hypot(U.Frames[P0][0], U.Frames[P0][1]);
    }
    return F;
  }
  case SlPick::Raw: {
    // Raw padded frames (2 channels x 24 frames).
    std::vector<float> F(48, 0.0f);
    for (int I = 0; I < std::min(Len, 24); ++I) {
      F[2 * I] = U.Frames[I][0];
      F[2 * I + 1] = U.Frames[I][1];
    }
    return F;
  }
  }
  assert(false && "unknown pick");
  return {};
}

double SphinxExperiment::runAnnotated(Session &S, const SphinxUtterance &U,
                                      SlPick Pick,
                                      const SphinxParams &Train) {
  ModelConfig Cfg;
  Cfg.Name = slModelName("SphinxNN", Pick);
  Cfg.HiddenLayers = {48, 24};
  Cfg.Seed = Seed + 5;
  S.config(Cfg);

  SphinxParams P = Train;
  std::vector<float> Feat = paramFeature(U, Pick);
  S.extract("FEAT", Feat.size(), Feat.data());
  S.nn(Cfg.Name, "FEAT", {{"BEAM", 1}, {"NFLOOR", 1}});
  float BeamV = static_cast<float>(P.Beam);
  float FloorV = static_cast<float>(P.NoiseFloor);
  S.writeBack("BEAM", 1, &BeamV);
  S.writeBack("NFLOOR", 1, &FloorV);
  P.Beam = clamp(BeamV, 0.2, 8.0);
  P.NoiseFloor = clamp(FloorV, 0.0, 0.16);

  return sphinxScore(U, P);
}

double SphinxExperiment::train(SlPick Pick, int Epochs) {
  Session &S = *Sessions[Idx(Pick)];
  assert(S.mode() == Mode::TR && "training twice on the same version");
  std::string ModelName = slModelName("SphinxNN", Pick);
  Timer T;
  for (size_t I = 0; I != TrainSet.size(); ++I)
    runAnnotated(S, TrainSet[I], Pick, TrainOracle[I]);
  S.trainSupervised(ModelName, Epochs, 16);
  double Secs = T.seconds();
  TraceBytesPer[Idx(Pick)] = S.stats().traceBytes();
  ModelBytesPer[Idx(Pick)] = S.getModel(ModelName)->modelSizeBytes();
  S.switchMode(Mode::TS);
  return Secs;
}

double SphinxExperiment::testScore(SlPick Pick) {
  Session &S = *Sessions[Idx(Pick)];
  assert(S.mode() == Mode::TS && "test before train");
  std::vector<double> Scores;
  for (const SphinxUtterance &U : TestSet)
    Scores.push_back(runAnnotated(S, U, Pick, SphinxParams()));
  return mean(Scores);
}

double SphinxExperiment::baselineScore() {
  std::vector<double> Scores;
  for (const SphinxUtterance &U : TestSet)
    Scores.push_back(sphinxScore(U, SphinxParams()));
  return mean(Scores);
}

double SphinxExperiment::autonomizedExecSeconds(SlPick Pick) {
  Session &S = *Sessions[Idx(Pick)];
  Timer T;
  for (const SphinxUtterance &U : TestSet)
    runAnnotated(S, U, Pick, SphinxParams());
  return T.seconds() / static_cast<double>(TestSet.size());
}

double SphinxExperiment::baselineExecSeconds() {
  Timer T;
  for (const SphinxUtterance &U : TestSet)
    sphinxScore(U, SphinxParams());
  return T.seconds() / static_cast<double>(TestSet.size());
}

size_t SphinxExperiment::traceBytes(SlPick Pick) const {
  return TraceBytesPer[static_cast<int>(Pick)];
}

size_t SphinxExperiment::modelBytes(SlPick Pick) const {
  return ModelBytesPer[static_cast<int>(Pick)];
}
