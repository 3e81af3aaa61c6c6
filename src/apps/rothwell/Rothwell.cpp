//===- apps/rothwell/Rothwell.cpp - Rothwell edge detector ---------------===//

#include "apps/rothwell/Rothwell.h"

#include "support/Ssim.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <deque>

using namespace au;
using namespace au::apps;
using analysis::SlPick;
using analysis::slModelName;

/// Box-filter mean of the magnitude over a (2R+1)^2 window.
static Image localMean(const Image &Mag, int R) {
  Image Out(Mag.width(), Mag.height(), 0.0f);
  for (int Y = 0; Y < Mag.height(); ++Y)
    for (int X = 0; X < Mag.width(); ++X) {
      double Acc = 0.0;
      int N = 0;
      for (int J = -R; J <= R; ++J)
        for (int I = -R; I <= R; ++I) {
          Acc += Mag.atClamped(X + I, Y + J);
          ++N;
        }
      Out.at(X, Y) = static_cast<float>(Acc / N);
    }
  return Out;
}

/// Drops connected components smaller than MinLen pixels.
static Image pruneShortChains(const Image &Edges, int MinLen) {
  Image Out = Edges;
  Image Seen(Edges.width(), Edges.height(), 0.0f);
  for (int Y = 0; Y < Edges.height(); ++Y)
    for (int X = 0; X < Edges.width(); ++X) {
      if (Out.at(X, Y) < 0.5f || Seen.at(X, Y) > 0.5f)
        continue;
      // Flood-fill the component.
      std::vector<std::pair<int, int>> Component;
      std::deque<std::pair<int, int>> Work{{X, Y}};
      Seen.at(X, Y) = 1.0f;
      while (!Work.empty()) {
        auto [Cx, Cy] = Work.front();
        Work.pop_front();
        Component.emplace_back(Cx, Cy);
        for (int J = -1; J <= 1; ++J)
          for (int I = -1; I <= 1; ++I) {
            int Nx = Cx + I, Ny = Cy + J;
            if (Out.inBounds(Nx, Ny) && Out.at(Nx, Ny) > 0.5f &&
                Seen.at(Nx, Ny) < 0.5f) {
              Seen.at(Nx, Ny) = 1.0f;
              Work.emplace_back(Nx, Ny);
            }
          }
      }
      if (static_cast<int>(Component.size()) < MinLen)
        for (auto [Cx, Cy] : Component)
          Out.at(Cx, Cy) = 0.0f;
    }
  return Out;
}

Image au::apps::rothwellDetect(const Image &In, const RothwellParams &P,
                               RothwellTrace *Trace) {
  Image SImg = gaussianSmooth(In, P.Sigma);
  Image Gx, Gy;
  sobel(SImg, Gx, Gy);
  Image Mag = gradientMagnitude(Gx, Gy);
  Image Mean = localMean(Mag, /*R=*/3);

  // Dynamic thresholding: keep pixels standing out of their neighborhood.
  Image Edges(In.width(), In.height(), 0.0f);
  std::vector<float> Ratios(RothwellHistBins, 0.0f);
  for (int Y = 0; Y < In.height(); ++Y)
    for (int X = 0; X < In.width(); ++X) {
      float M = Mag.at(X, Y);
      float L = std::max(Mean.at(X, Y), 1e-4f);
      float Ratio = M / L;
      int Bin = std::min(RothwellHistBins - 1,
                         static_cast<int>(Ratio / 4.0f * RothwellHistBins));
      Ratios[Bin] += 1.0f;
      if (Ratio > P.Alpha && M > 0.05f)
        Edges.at(X, Y) = 1.0f;
    }
  float N = static_cast<float>(In.size());
  for (float &RV : Ratios)
    RV /= N;

  if (Trace) {
    Trace->Smoothed = SImg;
    Trace->Magnitude = Mag;
    Trace->LocalMean = Mean;
    Trace->Ratios = Ratios;
  }
  return pruneShortChains(Edges, static_cast<int>(P.MinLen));
}

RothwellParams au::apps::autotuneRothwell(const CannyScene &Scene) {
  static const double Sigmas[] = {0.8, 1.4, 2.0};
  static const double Alphas[] = {1.3, 1.7, 2.1, 2.6};
  static const double Lens[] = {3.0, 6.0, 10.0};
  RothwellParams Best;
  double BestScore = -2.0;
  for (double Sg : Sigmas)
    for (double A : Alphas)
      for (double L : Lens) {
        RothwellParams P{Sg, A, L};
        double Score =
            cannyScore(rothwellDetect(Scene.Input, P), Scene.Truth);
        if (Score > BestScore) {
          BestScore = Score;
          Best = P;
        }
      }
  return Best;
}

void au::apps::rothwellProfile(analysis::Tracer &T,
                               std::vector<std::string> &Inputs,
                               std::vector<std::string> &Targets) {
  CannyScene Scene = makeCannyScene(808);
  RothwellTrace Trace;
  RothwellParams P;
  Image Result = rothwellDetect(Scene.Input, P, &Trace);

  T.markInput("image");
  T.recordDefValue("sigma", {}, "rothwell", P.Sigma);
  T.recordDefValue("alpha", {}, "threshold", P.Alpha);
  T.recordDefValue("minLen", {}, "pruneChains", P.MinLen);
  T.recordDef("sImg", {"image", "sigma"}, "smooth");
  T.recordValue("sImg", Trace.Smoothed.at(0, 0));
  T.recordDef("mag", {"sImg"}, "gradient");
  T.recordValue("mag", Trace.Magnitude.at(0, 0));
  T.recordDef("localMean", {"mag"}, "threshold");
  T.recordValue("localMean", Trace.LocalMean.at(0, 0));
  T.recordDef("ratioHist", {"mag", "localMean"}, "threshold");
  T.recordValue("ratioHist", Trace.Ratios.front());
  T.recordDef("edges", {"ratioHist", "alpha"}, "threshold");
  T.recordDef("result", {"edges", "minLen"}, "pruneChains");
  T.recordValue("result", Result.at(0, 0));

  Inputs = {"image"};
  Targets = {"sigma", "alpha", "minLen"};
}

//===----------------------------------------------------------------------===//
// The experiment driver
//===----------------------------------------------------------------------===//

RothwellExperiment::RothwellExperiment(int NumTrain, int NumTest, uint64_t S)
    : Seed(S) {
  for (int I = 0; I < NumTrain; ++I) {
    TrainScenes.push_back(makeCannyScene(Seed + 5000 + I));
    TrainOracle.push_back(autotuneRothwell(TrainScenes.back()));
  }
  for (int I = 0; I < NumTest; ++I)
    TestScenes.push_back(makeCannyScene(Seed + 20000 + I));
  for (auto &Sn : Sessions)
    Sn = std::make_unique<Session>(Eng, Mode::TR);
}

std::vector<float>
RothwellExperiment::paramFeature(const CannyScene &Scene,
                                 const RothwellTrace &Trace, SlPick Pick) {
  switch (Pick) {
  case SlPick::Min:
    return Trace.Ratios;
  case SlPick::Med: {
    Image Small = resize(Trace.Smoothed, CannyFeatureSide, CannyFeatureSide);
    return Small.data();
  }
  case SlPick::Raw: {
    Image Small = resize(Scene.Input, CannyFeatureSide, CannyFeatureSide);
    return Small.data();
  }
  }
  assert(false && "unknown pick");
  return {};
}

Image RothwellExperiment::runAnnotated(Session &S, const CannyScene &Scene,
                                       SlPick Pick,
                                       const RothwellParams &Train) {
  ModelConfig Cfg;
  Cfg.Name = slModelName("RothNN", Pick);
  Cfg.HiddenLayers = {48, 24};
  Cfg.Seed = Seed + 3;
  S.config(Cfg);

  RothwellParams P = Train;
  // Fixed-parameter reference pass so extracted features keep the same
  // distribution in training and deployment.
  RothwellTrace Trace;
  rothwellDetect(Scene.Input, RothwellParams(), &Trace);
  std::vector<float> Feat = paramFeature(Scene, Trace, Pick);
  S.extract("FEAT", Feat.size(), Feat.data());
  S.nn(Cfg.Name, "FEAT", {{"SIGMA", 1}, {"ALPHA", 1}, {"MINLEN", 1}});
  float SigmaV = static_cast<float>(P.Sigma);
  float AlphaV = static_cast<float>(P.Alpha);
  float LenV = static_cast<float>(P.MinLen);
  S.writeBack("SIGMA", 1, &SigmaV);
  S.writeBack("ALPHA", 1, &AlphaV);
  S.writeBack("MINLEN", 1, &LenV);
  P.Sigma = clamp(SigmaV, 0.6, 2.6);
  P.Alpha = clamp(AlphaV, 1.0, 3.0);
  P.MinLen = clamp(LenV, 1.0, 14.0);

  return rothwellDetect(Scene.Input, P);
}

double RothwellExperiment::train(SlPick Pick, int Epochs) {
  Session &S = *Sessions[Idx(Pick)];
  assert(S.mode() == Mode::TR && "training twice on the same version");
  std::string ModelName = slModelName("RothNN", Pick);
  Timer T;
  for (size_t I = 0; I != TrainScenes.size(); ++I)
    runAnnotated(S, TrainScenes[I], Pick, TrainOracle[I]);
  S.trainSupervised(ModelName, Epochs, 16);
  double Secs = T.seconds();
  TraceBytesPer[Idx(Pick)] = S.stats().traceBytes();
  ModelBytesPer[Idx(Pick)] = S.getModel(ModelName)->modelSizeBytes();
  S.switchMode(Mode::TS);
  return Secs;
}

double RothwellExperiment::testScore(SlPick Pick) {
  Session &S = *Sessions[Idx(Pick)];
  assert(S.mode() == Mode::TS && "test before train");
  std::vector<double> Scores;
  for (const CannyScene &Scene : TestScenes) {
    Image Edges = runAnnotated(S, Scene, Pick, RothwellParams());
    Scores.push_back(cannyScore(Edges, Scene.Truth));
  }
  return mean(Scores);
}

double RothwellExperiment::baselineScore() {
  std::vector<double> Scores;
  for (const CannyScene &Scene : TestScenes)
    Scores.push_back(cannyScore(rothwellDetect(Scene.Input, RothwellParams()),
                                Scene.Truth));
  return mean(Scores);
}

double RothwellExperiment::autonomizedExecSeconds(SlPick Pick) {
  Session &S = *Sessions[Idx(Pick)];
  Timer T;
  for (const CannyScene &Scene : TestScenes)
    runAnnotated(S, Scene, Pick, RothwellParams());
  return T.seconds() / static_cast<double>(TestScenes.size());
}

double RothwellExperiment::baselineExecSeconds() {
  Timer T;
  for (const CannyScene &Scene : TestScenes)
    rothwellDetect(Scene.Input, RothwellParams());
  return T.seconds() / static_cast<double>(TestScenes.size());
}

size_t RothwellExperiment::traceBytes(SlPick Pick) const {
  return TraceBytesPer[static_cast<int>(Pick)];
}

size_t RothwellExperiment::modelBytes(SlPick Pick) const {
  return ModelBytesPer[static_cast<int>(Pick)];
}
