//===- bench/nn_kernels.cpp - NN compute-engine micro-benchmarks ---------===//
//
// Measures the two compute engines (blocked-scalar and AVX2/FMA simd) on
// the repo's real model shapes (Canny Raw 32x32 frames, the RL harness
// 20x20 frames, and the dense heads), plus an end-to-end supervised epoch.
// Prints one JSON line per case, backend and thread count:
//
//   {"bench": "...", "backend": "...", "threads": N, "ns_per_iter": ...}
//
// and, where the CPU supports AVX2+FMA (else the simd rows are absent), a
// same-run speedup line per case and thread count:
//
//   {"bench": "...", "threads": N, "simd_speedup_vs_blocked": ...}
//
// Thread counts swept: 1 and 4.
//
// The dqn_step_flappy_* rows split one DQN minibatch step on the Flappy
// {5, 32, 32, 2} network at batch 32 (the step that dominates the RL game
// loops) into target forward, online forward, backward and Adam step, per
// backend; their ns_per_iter is per minibatch step, not per sample.
//
//===----------------------------------------------------------------------===//

#include "nn/Gemm.h"
#include "nn/Layers.h"
#include "nn/Network.h"
#include "nn/Optimizer.h"
#include "nn/Supervised.h"
#include "nn/Workspace.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace au;
using namespace au::nn;

namespace {

volatile float Sink; // Defeats dead-code elimination.

/// Times Fn (already warmed) and returns ns per iteration.
double timeNs(const std::function<void()> &Fn, int MinIters = 3,
              double MinSeconds = 0.25) {
  Fn(); // Warm-up: allocate workspaces, fault in pages.
  int Iters = 0;
  Timer T;
  do {
    Fn();
    ++Iters;
  } while (Iters < MinIters || T.seconds() < MinSeconds);
  return T.seconds() * 1e9 / Iters;
}

void printCase(const std::string &Bench, const std::string &BackendName,
               int Threads, double NsPerIter) {
  std::printf("{\"bench\": \"%s\", \"backend\": \"%s\", \"threads\": %d, "
              "\"ns_per_iter\": %.0f}\n",
              Bench.c_str(), BackendName.c_str(), Threads, NsPerIter);
  std::fflush(stdout);
}

/// The engines to sweep: always blocked, plus simd where the CPU supports
/// it. Blocked runs first, so each simd row has its same-run baseline.
std::vector<Backend> engines() {
  std::vector<Backend> Bs = {Backend::Blocked};
  if (simdSupported())
    Bs.push_back(Backend::Simd);
  return Bs;
}

/// Runs \p Run (ns per iteration) under each engine at each thread count,
/// printing a row per run and the simd-vs-blocked ratio of the same thread
/// count.
void sweepBackends(const std::string &Name, const std::vector<int> &ThreadsSet,
                   const std::function<double()> &Run) {
  std::vector<double> Blocked(ThreadsSet.size());
  for (Backend B : engines()) {
    setBackend(B);
    for (size_t I = 0; I != ThreadsSet.size(); ++I) {
      ThreadPool::setGlobalThreads(ThreadsSet[I]);
      double Ns = Run();
      printCase(Name, backendName(B), ThreadsSet[I], Ns);
      if (B == Backend::Blocked)
        Blocked[I] = Ns;
      else
        std::printf("{\"bench\": \"%s\", \"threads\": %d, "
                    "\"simd_speedup_vs_blocked\": %.2f}\n",
                    Name.c_str(), ThreadsSet[I], Blocked[I] / Ns);
    }
  }
  std::fflush(stdout);
}

Tensor randomBatch(std::vector<int> Shape, Rng &Rand) {
  Tensor T(std::move(Shape));
  for (float &V : T.values())
    V = static_cast<float>(Rand.uniform(-1, 1));
  return T;
}

template <typename L>
double benchLayerBatched(L &Layer, const Tensor &In, const Tensor &GradOut) {
  int BN = In.dim(0);
  LayerCtx Ctx;
  double Ns = timeNs([&] {
    Tensor Y = Layer.forward(In, &Ctx);
    Tensor GI = Layer.backward(GradOut, Ctx, /*NeedGradIn=*/true);
    Sink = GI[0] + Y[0];
  });
  return Ns / BN;
}

template <typename L>
double benchLayerForwardOnly(L &Layer, const Tensor &In) {
  int BN = In.dim(0);
  double Ns = timeNs([&] {
    Tensor Y = Layer.forward(In, nullptr);
    Sink = Y[0];
  });
  return Ns / BN;
}

void benchConvCase(const std::string &Name, int InC, int OutC, int K, int S,
                   int H, int W, int BN, const std::vector<int> &ThreadsSet) {
  Rng Rand(1);
  Rng WRand(2);
  Conv2D Conv(InC, OutC, K, S, WRand);
  Tensor In = randomBatch({BN, InC, H, W}, Rand);
  Tensor G = randomBatch({BN, OutC, convOutDim(H, K, S),
                          convOutDim(W, K, S)}, Rand);
  sweepBackends(Name, ThreadsSet,
                [&] { return benchLayerBatched(Conv, In, G); });
}

/// Conv2D forward only (the TS-mode inference path) at one thread: the
/// im2col and micro-kernel cost without the backward GEMMs.
void benchConvForwardCase(const std::string &Name, int InC, int OutC, int K,
                          int S, int H, int W, int BN) {
  Rng Rand(1);
  Rng WRand(2);
  Conv2D Conv(InC, OutC, K, S, WRand);
  Tensor In = randomBatch({BN, InC, H, W}, Rand);
  sweepBackends(Name, {1}, [&] { return benchLayerForwardOnly(Conv, In); });
}

void benchDenseCase(const std::string &Name, int InSz, int OutSz, int BN,
                    const std::vector<int> &ThreadsSet) {
  Rng Rand(1);
  Rng WRand(2);
  Dense D(InSz, OutSz, WRand);
  Tensor In = randomBatch({BN, InSz}, Rand);
  Tensor G = randomBatch({BN, OutSz}, Rand);
  sweepBackends(Name, ThreadsSet, [&] { return benchLayerBatched(D, In, G); });
}

/// End-to-end supervised epoch on the Canny Raw shape (1x32x32 frames
/// through the DeepMind-style CNN), the paper's heaviest training config.
void benchEndToEndEpoch(const std::vector<int> &ThreadsSet) {
  const int Side = 32, NSamples = 48, BatchSize = 16;
  sweepBackends("canny_raw_epoch", ThreadsSet, [&] {
    Rng NetRand(3);
    SupervisedTrainer Trainer(buildDeepMindCnn(1, Side, {64}, 2, NetRand),
                              1e-3);
    Rng DataRand(4);
    for (int I = 0; I < NSamples; ++I) {
      std::vector<float> X(Side * Side);
      for (float &V : X)
        V = static_cast<float>(DataRand.uniform(0, 1));
      std::vector<float> Y = {X[0], X[1]};
      Trainer.addSample(std::move(X), std::move(Y));
    }
    Rng TrainRand(5);
    return timeNs([&] { Trainer.train(1, BatchSize, TrainRand); }, 1, 0.5);
  });
}

/// One DQN minibatch step on the Flappy network, timed phase by phase:
/// target forward, online forward, backward (Huber gradient at the taken
/// action, as QLearner::trainStep), and the Adam step. Minibatches are
/// drawn from a fixed pool of random transitions and the target network
/// syncs every 250 steps, outside the timed phases, so the moments see
/// gradients like a replay buffer's rather than one batch fitted to zero.
void benchDqnStepCase(const std::vector<int> &ThreadsSet) {
  const int In = 5, Actions = 2, Batch = 32, Pool = 4096;
  const std::vector<int> Hidden = {32, 32};
  Rng DataRand(6);
  Tensor States = randomBatch({Pool, In}, DataRand);
  Tensor Next = randomBatch({Pool, In}, DataRand);
  std::vector<int> Act(Pool);
  std::vector<float> Reward(Pool);
  std::vector<bool> Terminal(Pool);
  for (int I = 0; I < Pool; ++I) {
    Act[I] = static_cast<int>(DataRand.uniformInt(Actions));
    Reward[I] = static_cast<float>(DataRand.uniform(-1, 1));
    Terminal[I] = DataRand.chance(0.1);
  }
  using Clock = std::chrono::steady_clock;
  auto Ns = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double, std::nano>(B - A).count();
  };
  const char *Phases[] = {"target_fwd", "online_fwd", "backward", "adam"};
  for (Backend Be : engines()) {
    setBackend(Be);
    for (int T : ThreadsSet) {
      ThreadPool::setGlobalThreads(T);
      Rng NetRand(3);
      Network Online = buildDnn(In, Hidden, Actions, NetRand);
      Network Target = buildDnn(In, Hidden, Actions, NetRand);
      Target.copyParamsFrom(Online);
      Adam Opt(Online, 5e-4);
      Tensor S({Batch, In}), N({Batch, In}), Grad({Batch, Actions});
      ForwardCtx Ctx;
      std::vector<int> Rows(Batch);
      Rng PickRand(7);
      double Total[4] = {0, 0, 0, 0};
      auto Step = [&](bool Timed) {
        for (int B = 0; B < Batch; ++B) {
          Rows[B] = static_cast<int>(PickRand.uniformInt(Pool));
          std::copy(States.sampleData(Rows[B]), States.sampleData(Rows[B]) + In,
                    S.sampleData(B));
          std::copy(Next.sampleData(Rows[B]), Next.sampleData(Rows[B]) + In,
                    N.sampleData(B));
        }
        Clock::time_point T0 = Clock::now();
        Tensor NextQ = Target.forward(N);
        Clock::time_point T1 = Clock::now();
        Tensor Pred = Online.forward(S, &Ctx);
        Grad.fill(0.0f);
        for (int B = 0; B < Batch; ++B) {
          int R = Rows[B];
          float Y = Reward[R];
          if (!Terminal[R]) {
            const float *Q = NextQ.sampleData(B);
            Y += 0.97f * *std::max_element(Q, Q + Actions);
          }
          float Diff = Pred.sampleData(B)[Act[R]] - Y;
          Grad.sampleData(B)[Act[R]] = std::clamp(Diff, -1.0f, 1.0f);
        }
        Workspace::release(NextQ);
        Workspace::release(Pred);
        Clock::time_point T2 = Clock::now();
        Tensor DIn = Online.backward(Grad, Ctx);
        Workspace::release(DIn);
        Clock::time_point T3 = Clock::now();
        Opt.step(1.0 / Batch);
        Clock::time_point T4 = Clock::now();
        if (Timed) {
          Total[0] += Ns(T0, T1);
          Total[1] += Ns(T1, T2);
          Total[2] += Ns(T2, T3);
          Total[3] += Ns(T3, T4);
        }
      };
      for (int I = 0; I < 500; ++I) // Warm-up: caches and moments settle.
        Step(false);
      long Iters = 0;
      Timer Wall;
      while (Iters < 1000 || Wall.seconds() < 0.5) {
        Step(true);
        if (++Iters % 250 == 0)
          Target.copyParamsFrom(Online);
      }
      double Sum = 0.0;
      for (int P = 0; P < 4; ++P) {
        printCase(std::string("dqn_step_flappy_") + Phases[P],
                  backendName(Be), T, Total[P] / Iters);
        Sum += Total[P];
      }
      printCase("dqn_step_flappy_total", backendName(Be), T, Sum / Iters);
    }
  }
}

} // namespace

int main() {
  std::vector<int> ThreadsSet = {1, 4};

  // Conv2D fwd+bwd on the repo's two CNN stage shapes, for the Canny Raw
  // 32x32 input and the RL harness 20x20 frame.
  benchConvCase("conv_fwd_bwd_canny_s1", 1, 8, 3, 1, 32, 32, 16, ThreadsSet);
  benchConvCase("conv_fwd_bwd_canny_s2", 8, 16, 3, 1, 15, 15, 16, ThreadsSet);
  benchConvCase("conv_fwd_bwd_mario_s1", 1, 8, 3, 1, 20, 20, 16, ThreadsSet);
  benchConvCase("conv_fwd_bwd_mario_s2", 8, 16, 3, 1, 9, 9, 16, ThreadsSet);

  // Forward-only conv (inference path) at one thread.
  benchConvForwardCase("conv_fwd_canny_s2", 8, 16, 3, 1, 15, 15, 16);
  benchConvForwardCase("conv_fwd_mario_s2", 8, 16, 3, 1, 9, 9, 16);

  // Dense fwd+bwd on the paper's common head shapes.
  benchDenseCase("dense_fwd_bwd_256x64", 256, 64, 32, ThreadsSet);
  benchDenseCase("dense_fwd_bwd_1024x64", 1024, 64, 32, ThreadsSet);

  benchEndToEndEpoch(ThreadsSet);

  // One DQN minibatch step on the Flappy network, phase by phase.
  benchDqnStepCase(ThreadsSet);
  return 0;
}
