//===- tests/RobustnessTest.cpp - Failure-injection and edge cases -------===//
//
// Robustness coverage: corrupt/truncated model files, degenerate
// detector/phylogeny/DTW inputs, extreme parameter values, and physics
// edge cases of the game environments.
//
//===----------------------------------------------------------------------===//

#include "apps/arkanoid/Arkanoid.h"
#include "apps/breakout/Breakout.h"
#include "apps/canny/Canny.h"
#include "apps/phylip/Phylip.h"
#include "apps/sphinx/Sphinx.h"
#include "apps/torcs/Torcs.h"
#include "core/Model.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace au;
using au::test::TempPath;
using namespace au::apps;

//===----------------------------------------------------------------------===//
// Model persistence failure injection
//===----------------------------------------------------------------------===//

namespace {
ModelConfig cfg(const char *Name, Algorithm A = Algorithm::AdamOpt) {
  ModelConfig C;
  C.Name = Name;
  C.Algo = A;
  C.HiddenLayers = {6};
  C.Seed = 11;
  return C;
}

/// Writes a trained SL model to \p Path.
void writeTrainedModel(const std::string &Path) {
  SlModel M(cfg("m"));
  Rng R(12);
  for (int I = 0; I < 30; ++I) {
    float X = static_cast<float>(R.uniform(0, 1));
    M.addSample({X}, {X}, {{"Y", 1}});
  }
  M.train(5, 8);
  EXPECT_TRUE(M.save(Path));
}
} // namespace

TEST(PersistenceRobustness, TruncatedFileRejected) {
  TempPath Path("model.aumodel");
  writeTrainedModel(Path.str());
  // Truncate to a prefix that still contains a valid magic.
  std::FILE *F = std::fopen(Path.str().c_str(), "rb");
  ASSERT_TRUE(F);
  char Buf[64];
  size_t N = std::fread(Buf, 1, sizeof(Buf), F);
  std::fclose(F);
  F = std::fopen(Path.str().c_str(), "wb");
  std::fwrite(Buf, 1, N, F);
  std::fclose(F);

  SlModel M(cfg("m"));
  EXPECT_FALSE(M.load(Path.str()));
}

TEST(PersistenceRobustness, WrongKindRejected) {
  TempPath Path("model.aumodel");
  writeTrainedModel(Path.str()); // Supervised on disk.
  RlModel M(cfg("m", Algorithm::QLearn));
  EXPECT_FALSE(M.load(Path.str()));
}

TEST(PersistenceRobustness, EmptyFileRejected) {
  TempPath Path("empty.aumodel");
  std::fclose(std::fopen(Path.str().c_str(), "wb"));
  SlModel M(cfg("m"));
  EXPECT_FALSE(M.load(Path.str()));
}

TEST(PersistenceRobustness, MissingFileRejected) {
  SlModel M(cfg("m"));
  TempPath Absent("absent.aumodel");
  EXPECT_FALSE(M.load(Absent.str()));
}

TEST(PersistenceRobustness, UnbuiltModelRefusesToSave) {
  SlModel M(cfg("m"));
  TempPath Path("unbuilt.aumodel");
  EXPECT_FALSE(M.save(Path.str()));
}

//===----------------------------------------------------------------------===//
// Detector edge cases
//===----------------------------------------------------------------------===//

TEST(CannyRobustness, ExtremeParametersStaySane) {
  CannyScene S = makeCannyScene(77);
  // Degenerate thresholds must not crash or mark everything.
  Image AllLoose = cannyDetect(S.Input, {0.6, 0.01, 0.01});
  Image AllStrict = cannyDetect(S.Input, {3.0, 0.99, 0.999});
  int Loose = 0, Strict = 0;
  for (float P : AllLoose.data())
    Loose += P > 0.5f;
  for (float P : AllStrict.data())
    Strict += P > 0.5f;
  EXPECT_GE(Loose, Strict);
  EXPECT_LT(Loose, static_cast<int>(AllLoose.size())); // Not everything.
}

TEST(CannyRobustness, TinyImageHandled) {
  Image Tiny(9, 9, 0.5f);
  Tiny.at(4, 4) = 1.0f;
  Image Edges = cannyDetect(Tiny, CannyParams());
  EXPECT_EQ(Edges.width(), 9);
}

//===----------------------------------------------------------------------===//
// Phylogeny edge cases
//===----------------------------------------------------------------------===//

TEST(PhylipRobustness, SaturatedDistancesStillBuildATree) {
  PhylipDataset D = makePhylipDataset(88);
  // Alpha at the extreme low end inflates distances toward saturation.
  std::vector<int> Tree =
      neighborJoin(phylipDistances(D, {0.25, 1.0, 0.9}), 12);
  // Must still be a well-formed tree over 12 leaves.
  int Roots = 0;
  for (int Node = 0; Node < static_cast<int>(Tree.size()); ++Node)
    Roots += Tree[Node] < 0;
  EXPECT_EQ(Roots, 1);
  EXPECT_LE(robinsonFoulds(Tree, D.TrueParent, 12), 1.0);
}

TEST(PhylipRobustness, AllGapColumnsExcludedGracefully) {
  PhylipDataset D = makePhylipDataset(89);
  // Force every column over the gap threshold: distances fall back to the
  // saturated value but nothing crashes.
  PhylipParams P;
  P.GapThresh = -1.0; // Every column excluded.
  std::vector<double> Dist = phylipDistances(D, P);
  for (int A = 0; A < 12; ++A)
    for (int B = 0; B < 12; ++B)
      if (A != B)
        EXPECT_GT(Dist[A * 12 + B], 0.0);
}

//===----------------------------------------------------------------------===//
// DTW edge cases
//===----------------------------------------------------------------------===//

TEST(SphinxRobustness, ZeroBeamStillReturnsAWord) {
  SphinxUtterance U = makeSphinxUtterance(91);
  SphinxResult R = sphinxRecognize(U, {1e-6, 0.0});
  EXPECT_GE(R.Word, 0);
  EXPECT_LT(R.Word, SphinxVocab);
}

TEST(SphinxRobustness, HugeFloorTrimsToMinimumLength) {
  SphinxUtterance U = makeSphinxUtterance(92);
  // A floor far above any signal trims to the 4-frame minimum, not to
  // nothing.
  SphinxResult R = sphinxRecognize(U, {6.0, 100.0});
  EXPECT_GE(R.Word, 0);
}

//===----------------------------------------------------------------------===//
// Game-physics edge cases
//===----------------------------------------------------------------------===//

TEST(ArkanoidPhysics, BallReflectsOffSideWalls) {
  ArkanoidEnv E;
  E.reset(0xE00);
  // Drive until the ball has touched both side regions at least once; the
  // x coordinate must always stay inside the world.
  Rng R(13);
  for (int I = 0; I < 500 && !E.terminal(); ++I) {
    E.step(E.heuristicAction(R));
    float Bx = featureValue(E.features(), "ballX");
    EXPECT_GE(Bx, 0.0f);
    EXPECT_LE(Bx, 1.0f);
  }
}

TEST(BreakoutPhysics, SpeedScaleIsMonotoneAndBounded) {
  BreakoutEnv E;
  E.reset(0xF00);
  Rng R(14);
  float Prev = featureValue(E.features(), "speedScale");
  for (int I = 0; I < 1500 && !E.terminal(); ++I) {
    E.step(E.heuristicAction(R));
    float Cur = featureValue(E.features(), "speedScale");
    EXPECT_GE(Cur, Prev);
    EXPECT_LE(Cur, 1.6f);
    Prev = Cur;
  }
}

TEST(TorcsPhysics, HeadingIsClamped) {
  TorcsEnv E;
  E.reset(0x1100);
  for (int I = 0; I < 40 && !E.terminal(); ++I) {
    E.step(0); // Hard left.
    EXPECT_LE(std::abs(featureValue(E.features(), "angle")), 0.9f);
  }
}

TEST(TorcsPhysics, ProgressIsMonotone) {
  TorcsEnv E;
  E.reset(0x1200);
  Rng R(15);
  double Prev = 0.0;
  for (int I = 0; I < 200 && !E.terminal(); ++I) {
    E.step(E.heuristicAction(R));
    EXPECT_GE(E.progress(), Prev);
    Prev = E.progress();
  }
}
