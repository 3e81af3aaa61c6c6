//===- tests/SupportTest.cpp - Unit tests for the support library --------===//

#include "support/Image.h"
#include "support/Rng.h"
#include "support/Ssim.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace au;
using au::test::TempPath;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 50; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform(-3.0, 5.0);
    EXPECT_GE(U, -3.0);
    EXPECT_LT(U, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng R(11);
  std::vector<int> Seen(10, 0);
  for (int I = 0; I < 2000; ++I)
    ++Seen[R.uniformInt(10)];
  for (int Count : Seen)
    EXPECT_GT(Count, 100);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng R(13);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 500; ++I) {
    int64_t V = R.uniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo = SawLo || V == -2;
    SawHi = SawHi || V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng R(17);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  EXPECT_NEAR(Var, 1.0, 0.08);
}

TEST(RngTest, ChanceExtremes) {
  Rng R(23);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
  }
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance({1.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(stddev({1.0, 3.0}), 1.0);
}

TEST(StatisticsTest, MinMaxScaleMapsToUnit) {
  std::vector<double> S = minMaxScale({2.0, 4.0, 6.0});
  ASSERT_EQ(S.size(), 3u);
  EXPECT_DOUBLE_EQ(S[0], 0.0);
  EXPECT_DOUBLE_EQ(S[1], 0.5);
  EXPECT_DOUBLE_EQ(S[2], 1.0);
}

TEST(StatisticsTest, MinMaxScaleConstantTraceIsZeros) {
  std::vector<double> S = minMaxScale({3.0, 3.0, 3.0});
  for (double V : S)
    EXPECT_DOUBLE_EQ(V, 0.0);
}

TEST(StatisticsTest, EuclideanDistanceZeroPadsShorter) {
  // The paper's footnote-2 example: [0.1,0.3,0.4] vs [0.1,0.2].
  double D = euclideanDistance({0.1, 0.3, 0.4}, {0.1, 0.2});
  EXPECT_NEAR(D, std::sqrt(0.17), 1e-12);
}

TEST(StatisticsTest, EuclideanDistanceSymmetric) {
  std::vector<double> A = {1.0, 2.0, 3.0};
  std::vector<double> B = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(euclideanDistance(A, B), euclideanDistance(B, A));
}

TEST(StatisticsTest, EuclideanDistanceIdentityIsZero) {
  std::vector<double> A = {0.5, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(euclideanDistance(A, A), 0.0);
}

TEST(StatisticsTest, PercentileInterpolates) {
  std::vector<double> Xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(Xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(Xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(Xs, 50), 2.5);
}

TEST(StatisticsTest, PearsonPerfectAndDegenerate) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 4, 6}), 0.0);
  EXPECT_DOUBLE_EQ(pearson({1, 2}, {1, 2, 3}), 0.0);
}

TEST(StatisticsTest, Clamp) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

//===----------------------------------------------------------------------===//
// Image
//===----------------------------------------------------------------------===//

TEST(ImageTest, ConstructionAndAccess) {
  Image I(4, 3, 0.5f);
  EXPECT_EQ(I.width(), 4);
  EXPECT_EQ(I.height(), 3);
  EXPECT_EQ(I.size(), 12u);
  I.at(2, 1) = 0.9f;
  EXPECT_FLOAT_EQ(I.at(2, 1), 0.9f);
  EXPECT_FLOAT_EQ(I.at(0, 0), 0.5f);
}

TEST(ImageTest, ClampedAccessReplicatesBorder) {
  Image I(2, 2);
  I.at(0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(I.atClamped(-5, -5), 1.0f);
  EXPECT_FLOAT_EQ(I.atClamped(0, 0), 1.0f);
}

TEST(ImageTest, GaussianPreservesConstantImage) {
  Image I(16, 16, 0.7f);
  Image S = gaussianSmooth(I, 1.5);
  for (float P : S.data())
    EXPECT_NEAR(P, 0.7f, 1e-5);
}

TEST(ImageTest, GaussianReducesVariance) {
  Image I(32, 32);
  Rng R(5);
  for (float &P : I.data())
    P = static_cast<float>(R.uniform());
  Image S = gaussianSmooth(I, 1.5);
  std::vector<double> Orig(I.data().begin(), I.data().end());
  std::vector<double> Smooth(S.data().begin(), S.data().end());
  EXPECT_LT(variance(Smooth), variance(Orig));
}

TEST(ImageTest, SobelDetectsVerticalStep) {
  Image I(10, 10, 0.0f);
  for (int Y = 0; Y < 10; ++Y)
    for (int X = 5; X < 10; ++X)
      I.at(X, Y) = 1.0f;
  Image Gx, Gy;
  sobel(I, Gx, Gy);
  // Strong horizontal gradient at the step, no vertical gradient inside.
  EXPECT_GT(std::abs(Gx.at(5, 5)), 1.0f);
  EXPECT_NEAR(Gy.at(5, 5), 0.0f, 1e-5);
}

TEST(ImageTest, GradientMagnitudeIsPythagorean) {
  Image Gx(2, 2, 3.0f), Gy(2, 2, 4.0f);
  Image M = gradientMagnitude(Gx, Gy);
  EXPECT_FLOAT_EQ(M.at(0, 0), 5.0f);
}

TEST(ImageTest, ResizePreservesConstant) {
  Image I(20, 20, 0.3f);
  Image S = resize(I, 7, 7);
  EXPECT_EQ(S.width(), 7);
  for (float P : S.data())
    EXPECT_NEAR(P, 0.3f, 1e-5);
}

TEST(ImageTest, PgmRoundTrip) {
  Image I(8, 6);
  Rng R(3);
  for (float &P : I.data())
    P = static_cast<float>(R.uniform());
  TempPath Path("image.pgm");
  ASSERT_TRUE(writePgm(I, Path.str()));
  Image Back = readPgm(Path.str());
  ASSERT_EQ(Back.width(), 8);
  ASSERT_EQ(Back.height(), 6);
  for (size_t K = 0; K != I.size(); ++K)
    EXPECT_NEAR(Back.data()[K], I.data()[K], 1.0 / 255.0 + 1e-6);
}

TEST(ImageTest, ReadPgmMissingFileIsEmpty) {
  TempPath Absent("absent.pgm");
  EXPECT_TRUE(readPgm(Absent.str()).empty());
}

//===----------------------------------------------------------------------===//
// SSIM / edge F1
//===----------------------------------------------------------------------===//

TEST(SsimTest, IdenticalImagesScoreOne) {
  Image I(16, 16);
  Rng R(19);
  for (float &P : I.data())
    P = static_cast<float>(R.uniform());
  EXPECT_NEAR(ssim(I, I), 1.0, 1e-9);
}

TEST(SsimTest, DifferentImagesScoreBelowOne) {
  Image A(16, 16, 0.0f), B(16, 16, 0.0f);
  Rng R(21);
  for (float &P : B.data())
    P = static_cast<float>(R.uniform());
  EXPECT_LT(ssim(A, B), 0.9);
}

TEST(SsimTest, Symmetric) {
  Image A(16, 16), B(16, 16);
  Rng R(23);
  for (float &P : A.data())
    P = static_cast<float>(R.uniform());
  for (float &P : B.data())
    P = static_cast<float>(R.uniform());
  EXPECT_NEAR(ssim(A, B), ssim(B, A), 1e-12);
}

TEST(SsimTest, CloserImageScoresHigher) {
  Image Truth(16, 16, 0.0f);
  for (int X = 4; X < 12; ++X)
    Truth.at(X, 8) = 1.0f;
  Image Close = Truth;
  Close.at(4, 8) = 0.0f; // One pixel off.
  Image Far(16, 16, 0.0f);
  EXPECT_GT(ssim(Close, Truth), ssim(Far, Truth));
}

TEST(EdgeF1Test, PerfectPredictionScoresOne) {
  Image T(10, 10, 0.0f);
  T.at(3, 3) = T.at(4, 3) = 1.0f;
  EXPECT_DOUBLE_EQ(edgeF1(T, T), 1.0);
}

TEST(EdgeF1Test, EmptyPredictionScoresZero) {
  Image T(10, 10, 0.0f);
  T.at(3, 3) = 1.0f;
  Image P(10, 10, 0.0f);
  EXPECT_DOUBLE_EQ(edgeF1(P, T), 0.0);
}

TEST(EdgeF1Test, ToleranceForgivesOffByOne) {
  Image T(10, 10, 0.0f);
  T.at(3, 3) = 1.0f;
  Image P(10, 10, 0.0f);
  P.at(4, 3) = 1.0f;
  EXPECT_DOUBLE_EQ(edgeF1(P, T, 1), 1.0);
  EXPECT_DOUBLE_EQ(edgeF1(P, T, 0), 0.0);
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersAlignedColumns) {
  Table T({"Name", "Value"});
  T.addRow({"alpha", "1"});
  T.addRow({"bb", "22"});
  std::string S = T.render();
  EXPECT_NE(S.find("Name"), std::string::npos);
  EXPECT_NE(S.find("alpha"), std::string::npos);
  EXPECT_NE(S.find("----"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, CsvEscapesCommas) {
  Table T({"A", "B"});
  T.addRow({"x,y", "1"});
  std::string Csv = T.renderCsv();
  EXPECT_NE(Csv.find("x;y,1"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(static_cast<long long>(42)), "42");
  EXPECT_EQ(fmtPercent(0.845), "84.5%");
}
