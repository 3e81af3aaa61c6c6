//===- tests/NnTest.cpp - Unit tests for the NN substrate ----------------===//

#include "core/Model.h"
#include "nn/Gemm.h"
#include "nn/Layers.h"
#include "nn/Loss.h"
#include "nn/Network.h"
#include "nn/Optimizer.h"
#include "nn/QLearner.h"
#include "nn/Supervised.h"
#include "support/Rng.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace au;
using au::test::TempPath;
using namespace au::nn;

//===----------------------------------------------------------------------===//
// Tensor
//===----------------------------------------------------------------------===//

TEST(TensorTest, ShapeAndFill) {
  Tensor T({2, 3}, 1.5f);
  EXPECT_EQ(T.size(), 6u);
  EXPECT_EQ(T.rank(), 2);
  EXPECT_EQ(T.dim(0), 2);
  for (size_t I = 0; I != T.size(); ++I)
    EXPECT_FLOAT_EQ(T[I], 1.5f);
}

TEST(TensorTest, FromVectorAndArgmax) {
  Tensor T({3});
  T[0] = 0.1f;
  T[1] = 0.9f;
  T[2] = 0.3f;
  EXPECT_EQ(T.rank(), 1);
  EXPECT_EQ(T.argmax(), 1u);
}

//===----------------------------------------------------------------------===//
// Finite-difference gradient checking
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Check under each compute engine this CPU supports, then restores
/// the process default.
template <typename F> void forEachEngine(F Check) {
  std::vector<Backend> Engines = {Backend::Blocked};
  if (simdSupported())
    Engines.push_back(Backend::Simd);
  for (Backend B : Engines) {
    SCOPED_TRACE(backendName(B));
    setBackend(B);
    Check();
  }
  setBackend(defaultBackend());
}

/// \p Sample (one input, unbatched shape) as batch 1, or followed by
/// Batch - 1 more samples drawn from \p Rand in [Lo, Hi).
Tensor makeBatch(const Tensor &Sample, int Batch, double Lo, double Hi,
                 Rng &Rand) {
  std::vector<int> Shape = {Batch};
  Shape.insert(Shape.end(), Sample.shape().begin(), Sample.shape().end());
  Tensor In(Shape);
  std::copy(Sample.data(), Sample.data() + Sample.size(), In.data());
  for (size_t I = Sample.size(); I != In.size(); ++I)
    In[I] = static_cast<float>(Rand.uniform(Lo, Hi));
  return In;
}

/// Sum-of-outputs loss for gradient checking: d(sum)/d(out_i) = 1. Summed
/// over the whole batch, so its gradients are the batch-summed ones the
/// layers accumulate.
double sumForward(Network &Net, const Tensor &In) {
  Tensor Out = Net.forward(In);
  double S = 0.0;
  for (size_t I = 0; I != Out.size(); ++I)
    S += Out[I];
  return S;
}

/// The central difference of \p Loss(Offset) at 0, or NaN when the two
/// one-sided differences disagree by more than \p Tol: the window then
/// straddles a kink (a ReLU input at zero, a max-pool tie) and no
/// difference quotient is the gradient.
template <typename F> double centralDifference(F Loss, double Tol) {
  const double Eps = 1e-3;
  double Plus = Loss(Eps), Mid = Loss(0.0), Minus = Loss(-Eps);
  if (std::abs((Plus - Mid) - (Mid - Minus)) / Eps > Tol)
    return NAN;
  return (Plus - Minus) / (2 * Eps);
}

/// Checks every parameter gradient of \p Net at batch \p In against finite
/// differences.
void checkParamGradients(Network &Net, const Tensor &In, double Tol) {
  Net.zeroGrads();
  ForwardCtx Ctx;
  Tensor Out = Net.forward(In, &Ctx);
  Net.backward(Tensor(Out.shape(), 1.0f), Ctx);
  int Compared = 0, Kinks = 0;
  for (ParamView P : Net.params())
    for (size_t I = 0; I < P.Count; I += std::max<size_t>(1, P.Count / 13)) {
      float Orig = P.Values[I];
      double Numeric = centralDifference(
          [&](double D) {
            // Writes through a ParamView must invalidate packed weights.
            P.Values[I] = Orig + static_cast<float>(D);
            Net.bumpParamGeneration();
            return sumForward(Net, In);
          },
          Tol);
      P.Values[I] = Orig;
      Net.bumpParamGeneration();
      if (std::isnan(Numeric)) {
        ++Kinks;
        continue;
      }
      ++Compared;
      EXPECT_NEAR(P.Grads[I], Numeric, Tol)
          << "parameter " << I << " gradient mismatch, batch " << In.dim(0);
    }
  EXPECT_LE(Kinks * 10, Compared) << "too many coordinates at a kink";
}

/// Checks the input gradients of \p Net at batch \p In against finite
/// differences.
void checkInputGradients(Network &Net, Tensor In, double Tol) {
  Net.zeroGrads();
  ForwardCtx Ctx;
  Tensor Out = Net.forward(In, &Ctx);
  Tensor GradIn =
      Net.backward(Tensor(Out.shape(), 1.0f), Ctx, /*WantGradIn=*/true);
  int Compared = 0, Kinks = 0;
  for (size_t I = 0; I != In.size();
       I += std::max<size_t>(1, In.size() / 9)) {
    float Orig = In[I];
    double Numeric = centralDifference(
        [&](double D) {
          In[I] = Orig + static_cast<float>(D);
          return sumForward(Net, In);
        },
        Tol);
    In[I] = Orig;
    if (std::isnan(Numeric)) {
      ++Kinks;
      continue;
    }
    ++Compared;
    EXPECT_NEAR(GradIn[I], Numeric, Tol)
        << "input " << I << " gradient mismatch, batch " << In.dim(0);
  }
  EXPECT_LE(Kinks * 10, Compared) << "too many coordinates at a kink";
}

/// Runs the parameter (and, with \p Inputs, input) gradient checks of
/// \p Net on \p Sample alone and in a batch of 3, under every engine.
void checkGradients(Network &Net, const Tensor &Sample, double Lo, double Hi,
                    double Tol, bool Inputs) {
  forEachEngine([&] {
    for (int Batch : {1, 3}) {
      Rng Rand(100 + Batch);
      Tensor In = makeBatch(Sample, Batch, Lo, Hi, Rand);
      checkParamGradients(Net, In, Tol);
      if (Inputs)
        checkInputGradients(Net, In, Tol);
    }
  });
}

} // namespace

TEST(GradCheckTest, DenseLayer) {
  Rng R(1);
  Network Net;
  Net.add(std::make_unique<Dense>(5, 4, R));
  Tensor In = Tensor::adopt({0.3f, -0.2f, 0.8f, 0.1f, -0.5f}, {5});
  checkGradients(Net, In, -1, 1, 1e-3, /*Inputs=*/true);
}

TEST(GradCheckTest, DenseReluStack) {
  Rng R(2);
  Network Net = buildDnn(6, {8, 5}, 3, R);
  Rng RIn(3);
  Tensor In({6});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(-1, 1));
  checkGradients(Net, In, -1, 1, 2e-3, /*Inputs=*/true);
}

TEST(GradCheckTest, ConvPoolNetwork) {
  Rng R(4);
  Network Net;
  Net.add(std::make_unique<Conv2D>(1, 3, 3, 1, R));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<MaxPool2D>());
  Net.add(std::make_unique<Flatten>());
  Net.add(std::make_unique<Dense>(3 * 3 * 3, 2, R));
  Rng RIn(5);
  Tensor In({1, 8, 8});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(-1, 1));
  checkGradients(Net, In, -1, 1, 3e-3, /*Inputs=*/false);
}

TEST(GradCheckTest, StridedConv) {
  // Stride 2 over an odd, non-square input: the taps of neighbouring
  // outputs overlap in one dimension and skip in the other.
  Rng R(12);
  Network Net;
  Net.add(std::make_unique<Conv2D>(2, 3, 3, 2, R));
  Net.add(std::make_unique<Flatten>());
  Rng RIn(13);
  Tensor In({2, 9, 7});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(-1, 1));
  checkGradients(Net, In, -1, 1, 2e-3, /*Inputs=*/true);
}

TEST(GradCheckTest, DeepMindCnn) {
  Rng R(6);
  Network Net = buildDeepMindCnn(1, 16, {12}, 4, R);
  Rng RIn(7);
  Tensor In({16 * 16});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(0, 1));
  checkGradients(Net, In, 0, 1, 5e-3, /*Inputs=*/false);
}

//===----------------------------------------------------------------------===//
// Layer shapes
//===----------------------------------------------------------------------===//

TEST(LayerTest, ConvOutputShape) {
  Rng R(8);
  Conv2D C(2, 5, 3, 1, R);
  Tensor In({1, 2, 10, 8});
  Tensor Out = C.forward(In, nullptr);
  EXPECT_EQ(Out.dim(0), 1);
  EXPECT_EQ(Out.dim(1), 5);
  EXPECT_EQ(Out.dim(2), 8);
  EXPECT_EQ(Out.dim(3), 6);
}

TEST(LayerTest, ConvStrideTwo) {
  Rng R(9);
  Conv2D C(1, 1, 3, 2, R);
  Tensor In({1, 1, 9, 9});
  Tensor Out = C.forward(In, nullptr);
  EXPECT_EQ(Out.dim(2), 4);
  EXPECT_EQ(Out.dim(3), 4);
}

TEST(LayerTest, MaxPoolSelectsMaximum) {
  MaxPool2D P;
  Tensor In({1, 1, 2, 2});
  In[0] = 1.0f; // (0, 0)
  In[1] = 4.0f; // (0, 1)
  In[2] = 2.0f; // (1, 0)
  In[3] = 3.0f; // (1, 1)
  LayerCtx Ctx;
  Tensor Out = P.forward(In, &Ctx);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FLOAT_EQ(Out[0], 4.0f);
  // Gradient routes only to the argmax.
  Tensor G = P.backward(Tensor({1, 1, 1, 1}, 1.0f), Ctx, true);
  EXPECT_FLOAT_EQ(G[1], 1.0f);
  EXPECT_FLOAT_EQ(G[0], 0.0f);
}

TEST(LayerTest, ReluZeroesNegatives) {
  ReLU L;
  Tensor In = Tensor::adopt({-1.0f, 2.0f}, {1, 2});
  Tensor Out = L.forward(In, nullptr);
  EXPECT_FLOAT_EQ(Out[0], 0.0f);
  EXPECT_FLOAT_EQ(Out[1], 2.0f);
}

TEST(LayerTest, ReshapeRoundTrip) {
  Reshape L({2, 2, 2});
  Tensor In = Tensor::adopt({1, 2, 3, 4, 5, 6, 7, 8}, {1, 8});
  LayerCtx Ctx;
  Tensor Out = L.forward(In, &Ctx);
  EXPECT_EQ(Out.shape(), (std::vector<int>{1, 2, 2, 2}));
  Tensor Back = L.backward(Out, Ctx, true);
  EXPECT_EQ(Back.shape(), (std::vector<int>{1, 8}));
  EXPECT_FLOAT_EQ(Back[7], 8.0f);
}

//===----------------------------------------------------------------------===//
// Losses
//===----------------------------------------------------------------------===//

TEST(LossTest, MseValueAndGradient) {
  // Two samples: the loss is the sum of each sample's mean squared error,
  // and each row's gradient is 2 * (Pred - Target) / N.
  Tensor Pred({2, 2});
  Tensor Target({2, 2});
  const float P[] = {1.0f, 2.0f, 0.5f, -1.0f};
  const float T[] = {0.0f, 2.0f, 0.5f, 1.0f};
  std::copy(P, P + 4, Pred.data());
  std::copy(T, T + 4, Target.data());
  Tensor Grad;
  double L = mseLossBatch(Pred, Target, Grad);
  EXPECT_NEAR(L, 0.5 + 2.0, 1e-9);
  EXPECT_NEAR(Grad[0], 1.0, 1e-6);
  EXPECT_NEAR(Grad[1], 0.0, 1e-6);
  EXPECT_NEAR(Grad[2], 0.0, 1e-6);
  EXPECT_NEAR(Grad[3], -2.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

namespace {
/// Trains Net to map x -> 2x+1 one sample per step, then returns the mean
/// squared error over an evaluation grid (the per-step loss is too noisy
/// to assert on).
double trainLinear(Adam &Opt, Network &Net, int Steps) {
  Rng R(31);
  Tensor In({1, 1}), Target({1, 1}), Grad;
  ForwardCtx Ctx;
  for (int S = 0; S < Steps; ++S) {
    float X = static_cast<float>(R.uniform(-1, 1));
    In[0] = X;
    Target[0] = 2 * X + 1;
    Tensor Out = Net.forward(In, &Ctx);
    mseLossBatch(Out, Target, Grad);
    Net.backward(Grad, Ctx);
    Opt.step(1.0);
  }
  double Err = 0.0;
  int N = 0;
  for (float X = -1.0f; X <= 1.0f; X += 0.1f, ++N) {
    In[0] = X;
    float Pred = Net.forward(In)[0];
    Err += (Pred - (2 * X + 1)) * (Pred - (2 * X + 1));
  }
  return Err / N;
}
} // namespace

TEST(OptimizerTest, AdamConvergesOnLinearFit) {
  Rng R(34);
  Network Net = buildDnn(1, {8}, 1, R);
  Adam Opt(Net, 0.01);
  EXPECT_LT(trainLinear(Opt, Net, 3000), 5e-2);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Rng R(35);
  Network Net = buildDnn(2, {}, 1, R);
  Adam Opt(Net, 0.01);
  Tensor In({1, 2}, 1.0f);
  ForwardCtx Ctx;
  Net.forward(In, &Ctx);
  Net.backward(Tensor({1, 1}, 1.0f), Ctx);
  Opt.step(1.0);
  for (ParamView P : Net.params())
    for (size_t I = 0; I != P.Count; ++I)
      EXPECT_FLOAT_EQ(P.Grads[I], 0.0f);
}

//===----------------------------------------------------------------------===//
// Network persistence and copying
//===----------------------------------------------------------------------===//

namespace {
/// A supervised model mapping 3 features to 2 outputs through \p Hidden,
/// built (and so initialized from \p Seed) by one recorded sample.
std::unique_ptr<SlModel> smallSlModel(std::vector<int> Hidden, uint64_t Seed) {
  ModelConfig Cfg;
  Cfg.Name = "net";
  Cfg.HiddenLayers = std::move(Hidden);
  Cfg.Seed = Seed;
  auto M = std::make_unique<SlModel>(Cfg);
  M->addSample({0.1f, 0.2f, 0.3f}, {1.0f, -1.0f}, {{"y", 2}});
  M->addSample({0.4f, -0.2f, 0.9f}, {0.5f, 2.0f}, {{"y", 2}});
  return M;
}
} // namespace

TEST(NetworkTest, SaveLoadRoundTrip) {
  std::unique_ptr<SlModel> A = smallSlModel({5}, 41);
  std::unique_ptr<SlModel> B = smallSlModel({5}, 42); // Different init.
  TempPath Path("net.bin");
  ASSERT_TRUE(A->save(Path.str()));
  ASSERT_TRUE(B->load(Path.str()));
  std::vector<float> OA = A->predict({0.1f, 0.2f, 0.3f});
  std::vector<float> OB = B->predict({0.1f, 0.2f, 0.3f});
  for (size_t I = 0; I != OA.size(); ++I)
    EXPECT_FLOAT_EQ(OA[I], OB[I]);
}

TEST(NetworkTest, LoadRejectsWrongArchitecture) {
  std::unique_ptr<SlModel> A = smallSlModel({5}, 41);
  // A model file carries its hidden layout, so a model with a custom
  // network builder is the one whose architecture can disagree with it.
  ModelConfig Cfg;
  Cfg.Name = "net";
  Cfg.CustomNetwork = [](int In, int Out, Rng &Rand) {
    return buildDnn(In, {6}, Out, Rand);
  };
  SlModel B(Cfg);
  TempPath Path("net.bin");
  ASSERT_TRUE(A->save(Path.str()));
  EXPECT_FALSE(B.load(Path.str()));
}

TEST(NetworkTest, CopyParamsMakesOutputsEqual) {
  Rng R(43);
  Network A = buildDnn(4, {6}, 3, R);
  Network B = buildDnn(4, {6}, 3, R);
  B.copyParamsFrom(A);
  Tensor In = Tensor::adopt({0.5f, -0.5f, 0.25f, 1.0f}, {1, 4});
  Tensor OA = A.forward(In), OB = B.forward(In);
  for (size_t I = 0; I != OA.size(); ++I)
    EXPECT_FLOAT_EQ(OA[I], OB[I]);
}

TEST(NetworkTest, SizeAccounting) {
  Rng R(44);
  Network Net = buildDnn(10, {4}, 2, R);
  // (10*4 + 4) + (4*2 + 2) = 54 params.
  EXPECT_EQ(Net.numParams(), 54u);
  EXPECT_EQ(Net.sizeInBytes(), 4 * 8 + 54 * sizeof(float));
}

//===----------------------------------------------------------------------===//
// Supervised trainer
//===----------------------------------------------------------------------===//

TEST(SupervisedTest, LearnsAffineMap) {
  Rng R(51);
  SupervisedTrainer Trainer(buildDnn(2, {24}, 1, R), 5e-3);
  Rng Data(52);
  for (int I = 0; I < 200; ++I) {
    float A = static_cast<float>(Data.uniform(-2, 2));
    float B = static_cast<float>(Data.uniform(-2, 2));
    Trainer.addSample({A, B}, {3 * A - B + 5});
  }
  Rng TrainR(53);
  Trainer.train(200, 16, TrainR);
  EXPECT_LT(Trainer.meanAbsError(), 0.25);
  std::vector<float> P = Trainer.predict({1.0f, 1.0f});
  EXPECT_NEAR(P[0], 7.0f, 0.8f);
}

TEST(SupervisedTest, NormalizationHandlesLargeScales) {
  Rng R(54);
  SupervisedTrainer Trainer(buildDnn(1, {8}, 1, R), 3e-3);
  Rng Data(55);
  for (int I = 0; I < 100; ++I) {
    float X = static_cast<float>(Data.uniform(1000, 2000));
    Trainer.addSample({X}, {X / 100});
  }
  Rng TrainR(56);
  Trainer.train(80, 16, TrainR);
  std::vector<float> P = Trainer.predict({1500.0f});
  EXPECT_NEAR(P[0], 15.0f, 1.0f);
}

TEST(SupervisedTest, EmptyDatasetTrainIsNoop) {
  Rng R(57);
  SupervisedTrainer Trainer(buildDnn(1, {}, 1, R));
  Rng TrainR(58);
  EXPECT_DOUBLE_EQ(Trainer.train(5, 4, TrainR), 0.0);
}

TEST(SupervisedTest, NormalizationExportImport) {
  Rng R(59);
  SupervisedTrainer A(buildDnn(1, {4}, 1, R), 1e-3);
  A.addSample({2.0f}, {4.0f});
  A.addSample({4.0f}, {8.0f});
  Normalization N = A.normalization();
  EXPECT_FLOAT_EQ(N.XMean[0], 3.0f);
  Rng R2(60);
  SupervisedTrainer B(buildDnn(1, {4}, 1, R2), 1e-3);
  B.setNormalization(N);
  B.network().copyParamsFrom(A.network());
  EXPECT_FLOAT_EQ(A.predict({2.0f})[0], B.predict({2.0f})[0]);
}

//===----------------------------------------------------------------------===//
// Q-learning
//===----------------------------------------------------------------------===//

namespace {
/// K = 1 action selection: one state, one fused forward.
int selectOne(QLearner &Q, const std::vector<float> &S, bool Learning) {
  int A = -1;
  Q.selectActions(S.data(), 1, static_cast<int>(S.size()), Learning, &A);
  return A;
}

/// Records one transition as actor 0 and finishes the tick.
void observeOne(QLearner &Q, const std::vector<float> &S, int A, float R,
                const std::vector<float> &Next, bool Terminal) {
  Q.observeActor(0, S.data(), S.size(), A, R, Next.data(), Next.size(),
                 Terminal);
  Q.finishTick(1);
}
} // namespace

TEST(QLearnerTest, SolvesTwoArmedBandit) {
  // One state, two actions; action 1 always pays more.
  QConfig Cfg;
  Cfg.EpsilonDecaySteps = 300;
  Cfg.WarmupSteps = 32;
  Cfg.TargetSyncInterval = 50;
  Rng Seed(61);
  QLearner Q(
      [] {
        Rng R(62);
        return buildDnn(1, {8}, 2, R);
      },
      2, Cfg, 63);
  std::vector<float> S = {1.0f};
  for (int I = 0; I < 800; ++I) {
    int A = selectOne(Q, S, true);
    float Reward = A == 1 ? 1.0f : -1.0f;
    observeOne(Q, S, A, Reward, S, false);
  }
  EXPECT_EQ(selectOne(Q, S, false), 1);
  std::vector<float> Qs = Q.qValues(S);
  EXPECT_GT(Qs[1], Qs[0]);
}

TEST(QLearnerTest, LearnsStateDependentPolicy) {
  // Two states: in state A action 0 pays, in state B action 1 pays.
  QConfig Cfg;
  Cfg.EpsilonDecaySteps = 400;
  Cfg.WarmupSteps = 32;
  Cfg.Gamma = 0.0; // Pure contextual bandit.
  QLearner Q(
      [] {
        Rng R(64);
        return buildDnn(1, {12}, 2, R);
      },
      2, Cfg, 65);
  Rng R(66);
  for (int I = 0; I < 1500; ++I) {
    bool InA = R.chance(0.5);
    std::vector<float> S = {InA ? 0.0f : 1.0f};
    int A = selectOne(Q, S, true);
    float Reward = (InA ? A == 0 : A == 1) ? 1.0f : -1.0f;
    observeOne(Q, S, A, Reward, S, true);
  }
  EXPECT_EQ(selectOne(Q, {0.0f}, false), 0);
  EXPECT_EQ(selectOne(Q, {1.0f}, false), 1);
}

TEST(QLearnerTest, EpsilonDecaysToFloor) {
  QConfig Cfg;
  Cfg.EpsilonStart = 1.0;
  Cfg.EpsilonEnd = 0.1;
  Cfg.EpsilonDecaySteps = 100;
  Cfg.WarmupSteps = 1000000; // Never train; just decay.
  QLearner Q(
      [] {
        Rng R(67);
        return buildDnn(1, {4}, 2, R);
      },
      2, Cfg, 68);
  std::vector<float> S = {0.0f};
  for (int I = 0; I < 200; ++I)
    observeOne(Q, S, 0, 0.0f, S, false);
  EXPECT_NEAR(Q.epsilon(), 0.1, 1e-9);
}

TEST(QLearnerTest, ReplayCapacityBounded) {
  QConfig Cfg;
  Cfg.ReplayCapacity = 50;
  Cfg.WarmupSteps = 1000000;
  QLearner Q(
      [] {
        Rng R(69);
        return buildDnn(1, {4}, 2, R);
      },
      2, Cfg, 70);
  std::vector<float> S = {0.0f};
  for (int I = 0; I < 200; ++I)
    observeOne(Q, S, 0, 0.0f, S, false);
  EXPECT_EQ(Q.replaySize(), 50u);
}
