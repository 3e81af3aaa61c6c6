//===- tests/NnKernelsTest.cpp - Batched compute engine tests ------------===//
//
// Differential tests pinning both compute engines (blocked and simd) to the
// direct-formula oracle of NnOracle.h, plus determinism-under-threading and
// ThreadPool unit tests.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "core/Model.h"
#include "nn/Gemm.h"
#include "nn/Layers.h"
#include "nn/Loss.h"
#include "nn/Network.h"
#include "nn/Optimizer.h"
#include "nn/Supervised.h"
#include "nn/Workspace.h"
#include "NnOracle.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <thread>

using namespace au;
using namespace au::nn;

namespace {

/// Asserts |A - B| <= 1e-4 * max(1, |B|) elementwise.
void expectClose(const std::vector<float> &A, const std::vector<float> &B,
                 const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I != A.size(); ++I) {
    double Tol = 1e-4 * std::max(1.0, std::abs(static_cast<double>(B[I])));
    ASSERT_NEAR(A[I], B[I], Tol) << What << " at index " << I;
  }
}

/// A copy of \p T's elements, for the vector comparisons.
std::vector<float> flat(const Tensor &T) {
  return std::vector<float>(T.data(), T.data() + T.size());
}

Tensor randomTensor(std::vector<int> Shape, Rng &Rand) {
  Tensor T(std::move(Shape));
  for (float &V : T.values())
    V = static_cast<float>(Rand.uniform(-1.5, 1.5));
  return T;
}

/// Collects a layer's parameter gradients as one flat vector.
std::vector<float> gradSnapshot(Layer &L) {
  std::vector<float> Out;
  for (ParamView P : L.params())
    Out.insert(Out.end(), P.Grads, P.Grads + P.Count);
  return Out;
}

/// Holds the calling thread for \p D. It yields meanwhile, so that on an
/// oversubscribed CPU the team's other threads still get to claim chunks.
void spinFor(std::chrono::microseconds D) {
  auto Until = std::chrono::steady_clock::now() + D;
  while (std::chrono::steady_clock::now() < Until)
    std::this_thread::yield();
}

/// Records whether a loop's chunks ran off the thread that issued it.
/// awaitTeam() holds a chunk until that has happened, for at most a second
/// after construction: on a loaded machine a woken worker can take long to
/// be scheduled, and a test of the team must not turn on that.
class TeamWatch {
public:
  void ran() {
    if (std::this_thread::get_id() != Caller)
      Left = true;
  }
  void awaitTeam() const {
    while (!Left && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
  }
  bool left() const { return Left; }

private:
  std::thread::id Caller = std::this_thread::get_id();
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::atomic<bool> Left{false};
};

/// Runs one loop of eight single-iteration chunks on \p Pool, each calling
/// \p Chunk, and returns whether some chunk ran on a thread other than the
/// caller; with \p AwaitTeam each chunk then waits for that. Each lambda
/// type passed in is its own call site.
template <typename F>
bool leavesCaller(ThreadPool &Pool, const F &Chunk, bool AwaitTeam = false) {
  TeamWatch Watch;
  Pool.parallelFor(0, 8, 1, [&](size_t B, size_t E) {
    for (size_t I = B; I != E; ++I) {
      Watch.ran();
      Chunk();
      if (AwaitTeam)
        Watch.awaitTeam();
    }
  });
  return Watch.left();
}

/// A cost clock for the inline-policy tests: it moves only when a loop body
/// advances it, so a chunk costs exactly what the test says, whatever the
/// host's scheduler does meanwhile.
std::atomic<int64_t> FakeNs{0};
int64_t fakeClock() { return FakeNs.load(std::memory_order_relaxed); }

/// A chunk body that costs \p Ns on the fake clock.
void spendFake(std::chrono::nanoseconds Ns) {
  FakeNs.fetch_add(Ns.count(), std::memory_order_relaxed);
}

/// Restores the GEMM backend, a default pool and the steady cost clock
/// after each test.
class NnKernelsTest : public ::testing::Test {
protected:
  void TearDown() override {
    setBackend(defaultBackend());
    ThreadPool::setGlobalThreads(1);
    ThreadPool::setCostClock(nullptr);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, ParallelForCoversRangeExactlyOnce) {
  for (int Threads : {1, 2, 8}) {
    ThreadPool Pool(Threads);
    std::vector<std::atomic<int>> Hits(1000);
    for (auto &H : Hits)
      H = 0;
    // 143 chunks of 2 us each: far above the inline cutoff, so every call
    // after the first is measured onto the team too.
    TeamWatch Watch;
    Pool.parallelFor(0, Hits.size(), 7, [&](size_t B, size_t E) {
      Watch.ran();
      spinFor(std::chrono::microseconds(2));
      if (Threads > 1)
        Watch.awaitTeam();
      for (size_t I = B; I != E; ++I)
        ++Hits[I];
    });
    for (size_t I = 0; I != Hits.size(); ++I)
      ASSERT_EQ(Hits[I], 1) << "threads=" << Threads << " index=" << I;
    if (Threads > 1) {
      EXPECT_TRUE(Watch.left()) << "no chunk reached the team at " << Threads;
    }
  }
}

TEST_F(NnKernelsTest, ConcurrentCallersEachCoverTheirRangeOnce) {
  // Eight threads issue loops on one 4-thread team at once: whichever finds
  // the team busy runs its loop inline, and every index of every loop must
  // still run exactly once. Each chunk waits 2 us, so a loop of 33 chunks
  // stays far above the inline cutoff and keeps reaching the team.
  ThreadPool Pool(4);
  constexpr int Callers = 8, Loops = 200;
  constexpr size_t Items = 97;
  std::vector<std::vector<std::atomic<int>>> Hits(Callers);
  for (auto &H : Hits)
    H = std::vector<std::atomic<int>>(Items);
  std::atomic<int> Reached{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < Callers; ++T)
    Threads.emplace_back([&, T] {
      TeamWatch Watch;
      for (int L = 0; L < Loops; ++L)
        Pool.parallelFor(0, Items, 3, [&](size_t B, size_t E) {
          Watch.ran();
          spinFor(std::chrono::microseconds(2));
          for (size_t I = B; I != E; ++I)
            ++Hits[T][I];
        });
      Reached += Watch.left() ? 1 : 0;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < Callers; ++T)
    for (size_t I = 0; I != Items; ++I)
      ASSERT_EQ(Hits[T][I], Loops) << "caller=" << T << " index=" << I;
  EXPECT_GT(Reached.load(), 0) << "no chunk ever ran off its issuing thread";
}

TEST_F(NnKernelsTest, NestedParallelForRunsInline) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(64 * 16);
  std::atomic<int> Foreign{0};
  Pool.parallelFor(0, 64, 1, [&](size_t B, size_t E) {
    std::thread::id Outer = std::this_thread::get_id();
    for (size_t I = B; I != E; ++I)
      Pool.parallelFor(0, 16, 1, [&](size_t NB, size_t NE) {
        if (std::this_thread::get_id() != Outer)
          ++Foreign;
        for (size_t J = NB; J != NE; ++J)
          ++Hits[I * 16 + J];
      });
  });
  EXPECT_EQ(Foreign.load(), 0) << "a nested chunk left its issuing thread";
  for (size_t I = 0; I != Hits.size(); ++I)
    ASSERT_EQ(Hits[I], 1) << "index=" << I;
}

TEST_F(NnKernelsTest, PoolSurvivesParkingAndDestruction) {
  // 150 chunks of 5 us each: far above the inline cutoff, so every round
  // dispatches and wakes the team. Returns whether the range was covered
  // once and some chunk ran off the calling thread.
  auto CoversOnce = [](ThreadPool &Pool) {
    std::vector<std::atomic<int>> Hits(300);
    TeamWatch Watch;
    Pool.parallelFor(0, Hits.size(), 2, [&](size_t B, size_t E) {
      Watch.ran();
      spinFor(std::chrono::microseconds(5));
      Watch.awaitTeam();
      for (size_t I = B; I != E; ++I)
        ++Hits[I];
    });
    for (size_t I = 0; I != Hits.size(); ++I)
      if (Hits[I] != 1)
        return false;
    return Watch.left();
  };
  const auto PastSpin = 20 * ThreadPool::SpinBudget;
  {
    // Destroyed right after a loop, while its workers still spin.
    ThreadPool Pool(4);
    EXPECT_TRUE(CoversOnce(Pool));
  }
  {
    // Destroyed with every worker parked.
    ThreadPool Pool(4);
    EXPECT_TRUE(CoversOnce(Pool));
    std::this_thread::sleep_for(PastSpin);
  }
  {
    // A loop issued to a parked team wakes it and still covers its range.
    ThreadPool Pool(4);
    for (int Round = 0; Round < 3; ++Round) {
      std::this_thread::sleep_for(PastSpin);
      EXPECT_TRUE(CoversOnce(Pool)) << "round " << Round;
    }
  }
}

TEST_F(NnKernelsTest, CheapLoopRunsInlineOnceMeasured) {
  // The first call is unmeasured, so it goes to the team; after it, eight
  // chunks that cost nothing stay on the caller.
  ThreadPool::setCostClock(fakeClock);
  ThreadPool Pool(4);
  auto Trivial = [] {};
  leavesCaller(Pool, Trivial);
  int Inline = 0;
  for (int Call = 0; Call < 100; ++Call)
    Inline += leavesCaller(Pool, Trivial) ? 0 : 1;
  EXPECT_GE(Inline, 90);
}

TEST_F(NnKernelsTest, CostlyLoopReachesTheTeamOnEveryCall) {
  ThreadPool::setCostClock(fakeClock);
  ThreadPool Pool(4);
  auto Costly = [] { spendFake(std::chrono::microseconds(50)); };
  for (int Call = 0; Call < 20; ++Call)
    EXPECT_TRUE(leavesCaller(Pool, Costly, /*AwaitTeam=*/true))
        << "call " << Call;
}

TEST_F(NnKernelsTest, LoopThatTurnsCostlyReturnsToTheTeam) {
  // One call site, cheap for 100 calls, then 50 us a chunk. Its first costly
  // call runs inline on the cheap estimate and measures itself; the next one
  // must be back on the team.
  ThreadPool::setCostClock(fakeClock);
  ThreadPool Pool(4);
  std::chrono::microseconds Wait{0};
  auto Chunk = [&] { spendFake(Wait); };
  for (int Call = 0; Call < 100; ++Call)
    leavesCaller(Pool, Chunk);
  Wait = std::chrono::microseconds(50);
  leavesCaller(Pool, Chunk);
  for (int Call = 0; Call < 10; ++Call)
    EXPECT_TRUE(leavesCaller(Pool, Chunk, /*AwaitTeam=*/true))
        << "costly call " << Call + 2;
}

TEST_F(NnKernelsTest, ShardedSumMeasuresEachCallerApart) {
  // parallelShardedSum wraps every caller's body in one lambda. A trivial
  // caller and a 50 us-a-shard caller alternate; the costly one must not
  // inherit the trivial one's cost, so it reaches the team every time.
  ThreadPool::setGlobalThreads(4);
  float Out = 0.0f;
  for (int Round = 0; Round < 10; ++Round) {
    parallelShardedSum(16, 1, 1, [](size_t, size_t, float *Acc) {
      Acc[0] += 1.0f;
    }, &Out);
    TeamWatch Watch;
    parallelShardedSum(16, 1, 1, [&](size_t, size_t, float *Acc) {
      Watch.ran();
      spinFor(std::chrono::microseconds(50));
      Watch.awaitTeam();
      Acc[0] += 1.0f;
    }, &Out);
    EXPECT_TRUE(Watch.left()) << "round " << Round;
  }
  EXPECT_EQ(Out, 20 * 16.0f);
}

TEST_F(NnKernelsTest, GlobalThreadCountTogglesBetweenLoops) {
  for (int Threads : {1, 4, 1, 4}) {
    ThreadPool::setGlobalThreads(Threads);
    ASSERT_EQ(ThreadPool::global().numThreads(), Threads);
    std::vector<std::atomic<int>> Hits(500);
    ThreadPool::global().parallelFor(0, Hits.size(), 5,
                                     [&](size_t B, size_t E) {
      for (size_t I = B; I != E; ++I)
        ++Hits[I];
    });
    for (size_t I = 0; I != Hits.size(); ++I)
      ASSERT_EQ(Hits[I], 1) << "threads=" << Threads << " index=" << I;
  }
}

TEST_F(NnKernelsTest, ShardedSumMatchesSerialAtAnyThreadCount) {
  std::vector<float> Items(1237);
  Rng Rand(7);
  for (float &V : Items)
    V = static_cast<float>(Rand.uniform(-1, 1));
  std::vector<float> Results;
  for (int Threads : {1, 2, 8}) {
    ThreadPool::setGlobalThreads(Threads);
    float Out = 1.0f; // parallelShardedSum accumulates on top.
    parallelShardedSum(Items.size(), 10, 1,
                       [&](size_t B, size_t E, float *Acc) {
      for (size_t I = B; I != E; ++I)
        Acc[0] += Items[I];
    }, &Out);
    Results.push_back(Out);
  }
  // Bitwise identical across thread counts (fixed shard tree).
  EXPECT_EQ(Results[0], Results[1]);
  EXPECT_EQ(Results[0], Results[2]);
  double Serial = 1.0 + std::accumulate(Items.begin(), Items.end(), 0.0);
  EXPECT_NEAR(Results[0], Serial, 1e-3);
}

//===----------------------------------------------------------------------===//
// SGEMM
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, SgemmMatchesReferenceAllTransposeCombos) {
  struct Extent {
    int M, N, K;
  } Extents[] = {
      {5, 7, 11},   // One partial row panel, one half-width column panel.
      {13, 37, 19}, // Full and partial 6-row panels, three column panels.
      {12, 16, 3},  // Exact panel multiples.
  };
  // Every stored matrix has padded rows (row stride = width + Pad) and sits
  // in a heap buffer that ends at its last element, so ASan flags any read
  // past the last row or k. The padding holds random values, so a kernel
  // that reads it also fails the comparison.
  const int Pad = 3;
  const float Alpha = 0.75f, Beta = 0.5f;
  auto Fill = [](float *P, size_t N, Rng &Rand) {
    for (size_t I = 0; I != N; ++I)
      P[I] = static_cast<float>(Rand.uniform(-1.5, 1.5));
  };
  Rng Rand(42);
  for (Backend Be : comparableBackends()) {
    setBackend(Be);
    for (const Extent &E : Extents)
      for (bool TA : {false, true})
        for (bool TB : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << backendName(Be) << " M=" << E.M << " N=" << E.N
                       << " K=" << E.K << " TA=" << TA << " TB=" << TB);
          // Stored shapes: A is MxK (or KxM when transposed), B is KxN / NxK.
          int AW = TA ? E.M : E.K, BW = TB ? E.K : E.N;
          int Lda = AW + Pad, Ldb = BW + Pad, Ldc = E.N + Pad;
          size_t ASz = static_cast<size_t>((TA ? E.K : E.M) - 1) * Lda + AW;
          size_t BSz = static_cast<size_t>((TB ? E.N : E.K) - 1) * Ldb + BW;
          std::unique_ptr<float[]> A(new float[ASz]);
          std::unique_ptr<float[]> B(new float[BSz]);
          Fill(A.get(), ASz, Rand);
          Fill(B.get(), BSz, Rand);
          std::vector<float> C0(static_cast<size_t>(E.M) * Ldc);
          Fill(C0.data(), C0.size(), Rand);
          std::vector<float> Ref = C0; // Padding columns must stay as is.
          for (int I = 0; I < E.M; ++I)
            for (int J = 0; J < E.N; ++J) {
              double Acc = 0.0;
              for (int Kk = 0; Kk < E.K; ++Kk) {
                float AV = TA ? A[Kk * Lda + I] : A[I * Lda + Kk];
                float BV = TB ? B[J * Ldb + Kk] : B[Kk * Ldb + J];
                Acc += static_cast<double>(AV) * BV;
              }
              Ref[I * Ldc + J] =
                  static_cast<float>(Alpha * Acc + Beta * C0[I * Ldc + J]);
            }
          std::vector<float> AtOneThread;
          for (int Threads : {1, 4}) {
            ThreadPool::setGlobalThreads(Threads);
            std::vector<float> C = C0;
            sgemm(TA, TB, E.M, E.N, E.K, Alpha, A.get(), Lda, B.get(), Ldb,
                  Beta, C.data(), Ldc);
            expectClose(C, Ref, "sgemm");
            if (Threads == 1)
              AtOneThread = C;
            else
              EXPECT_EQ(C, AtOneThread) << "sgemm differs across threads";
          }
        }
  }
}

//===----------------------------------------------------------------------===//
// Adam
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, AdamMomentsNeverStayOnSubnormals) {
  // 19 elements: the simd kernel runs its 8-lane body twice and its scalar
  // tail. Gradient magnitudes fall from 1 to 1e-18: the smallest put V
  // below FLT_MIN on the first step, and without a flush every M decays
  // onto a subnormal that 0.9 * M rounds back to within the 2000
  // zero-gradient steps.
  constexpr size_t N = 19;
  const double Lr = 1e-3, B1 = 0.9, B2 = 0.999, Eps = 1e-8;
  for (Backend Be : comparableBackends()) {
    setBackend(Be);
    std::vector<float> W(N), G(N), M(N, 0.0f), V(N, 0.0f);
    Rng Rand(19);
    for (size_t I = 0; I != N; ++I) {
      W[I] = static_cast<float>(Rand.uniform(-1, 1));
      double Sign = Rand.chance(0.5) ? -1.0 : 1.0;
      G[I] = static_cast<float>(Sign * std::pow(10.0, -static_cast<int>(I)));
    }
    // The kernel clears G, so every step after the first sees zeros.
    for (int Step = 1; Step <= 2001; ++Step) {
      adamUpdateKernel(W.data(), G.data(), M.data(), V.data(), N, Lr, B1, B2,
                       Eps, 1.0 - std::pow(B1, Step),
                       1.0 - std::pow(B2, Step), 1.0);
      for (size_t I = 0; I != N; ++I) {
        ASSERT_NE(std::fpclassify(M[I]), FP_SUBNORMAL)
            << backendName(Be) << " step " << Step << " M[" << I << "]";
        ASSERT_NE(std::fpclassify(V[I]), FP_SUBNORMAL)
            << backendName(Be) << " step " << Step << " V[" << I << "]";
        ASSERT_EQ(G[I], 0.0f);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Layers vs the direct-formula oracle (tests/NnOracle.h), both engines
//===----------------------------------------------------------------------===//

namespace {

/// Checks one forward + backward of \p L against \p Ref.
void expectMatchesOracle(Layer &L, const Tensor &In, const Tensor &GradOut,
                         const oracle::Reference &Ref, const char *What) {
  SCOPED_TRACE(::testing::Message() << What << " " << backendName(backend())
                                    << " batch " << In.dim(0));
  for (ParamView P : L.params())
    std::fill(P.Grads, P.Grads + P.Count, 0.0f);
  LayerCtx Ctx;
  Tensor Out = L.forward(In, &Ctx);
  Tensor GradIn = L.backward(GradOut, Ctx, /*NeedGradIn=*/true);
  expectClose(flat(Out), Ref.Out, "forward");
  expectClose(flat(GradIn), Ref.GradIn, "grad-in");
  expectClose(gradSnapshot(L), Ref.ParamGrads, "param grads");
}

} // namespace

TEST_F(NnKernelsTest, DenseBatchMatchesNaive) {
  ThreadPool::setGlobalThreads(4);
  for (Backend Be : comparableBackends()) {
    setBackend(Be);
    for (int BatchSize : {1, 17}) {
      Rng R(3);
      Dense D(7, 5, R);
      Rng Rand(99);
      Tensor In = randomTensor({BatchSize, 7}, Rand);
      Tensor GradOut = randomTensor({BatchSize, 5}, Rand);
      expectMatchesOracle(D, In, GradOut, oracle::runDense(D, In, GradOut),
                          "dense");
    }
  }
}

TEST_F(NnKernelsTest, ConvBatchMatchesNaiveOddShapesAndStride) {
  ThreadPool::setGlobalThreads(4);
  struct Case {
    int InC, OutC, K, S, H, W;
  } Cases[] = {
      {3, 5, 3, 1, 11, 9}, // non-square
      {2, 4, 3, 2, 13, 7}, // stride > 1, non-square
      {1, 8, 5, 2, 12, 17},
  };
  for (Backend Be : comparableBackends()) {
    setBackend(Be);
    for (const Case &C : Cases)
      for (int BatchSize : {1, 17}) {
        Rng R(5);
        Conv2D Conv(C.InC, C.OutC, C.K, C.S, R);
        Rng Rand(123);
        Tensor In = randomTensor({BatchSize, C.InC, C.H, C.W}, Rand);
        int OH = convOutDim(C.H, C.K, C.S), OW = convOutDim(C.W, C.K, C.S);
        Tensor GradOut = randomTensor({BatchSize, C.OutC, OH, OW}, Rand);
        expectMatchesOracle(Conv, In, GradOut,
                            oracle::runConv(Conv, In, GradOut), "conv");
      }
  }
}

TEST_F(NnKernelsTest, MaxPoolBatchMatchesOracle) {
  ThreadPool::setGlobalThreads(4);
  for (Backend Be : comparableBackends()) {
    setBackend(Be);
    for (int BatchSize : {1, 17}) {
      MaxPool2D Pool;
      Rng Rand(77);
      // Odd height and width: the trailing row and column are dropped.
      Tensor In = randomTensor({BatchSize, 3, 7, 9}, Rand);
      Tensor GradOut = randomTensor({BatchSize, 3, 3, 4}, Rand);
      expectMatchesOracle(Pool, In, GradOut, oracle::runMaxPool(In, GradOut),
                          "maxpool");
    }
  }
}

namespace {

/// Asserts that \p A holds exactly the bits of \p B (NaN payloads and the
/// sign of zero included).
void expectBitwise(const float *A, const std::vector<float> &B,
                   const char *What) {
  for (size_t I = 0; I != B.size(); ++I) {
    uint32_t X, Y;
    std::memcpy(&X, A + I, sizeof(X));
    std::memcpy(&Y, &B[I], sizeof(Y));
    ASSERT_EQ(X, Y) << What << " at index " << I << ": " << A[I] << " vs "
                    << B[I];
  }
}

/// Overwrites some 2x2 windows of the (Batch, C, H, W) tensor \p In with
/// the cases a vector max can get wrong, cycling through them by output
/// index (11 cases, prime to the vector widths, so each reaches every lane
/// and the overlapped row tails): four equal values, +0 against -0 in
/// either order, a NaN in each of the four slots, and ties between later
/// slots. The other windows keep their random values.
void plantMaxPoolEdgeCases(Tensor &In) {
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const float Cases[11][4] = {
      {0.5f, 0.5f, 0.5f, 0.5f},   {-0.0f, 0.0f, -0.0f, 0.0f},
      {0.0f, -0.0f, -0.0f, -0.0f}, {-0.0f, -0.0f, 0.0f, 0.0f},
      {Nan, 0.25f, 0.75f, 0.5f},  {0.25f, Nan, 0.75f, 0.5f},
      {0.25f, 0.75f, Nan, 0.5f},  {0.25f, 0.5f, 0.75f, Nan},
      {-1.0f, 0.75f, 0.25f, 0.75f}, {-1.0f, -2.0f, 0.75f, 0.75f},
      {Nan, Nan, 1.0f, 1.0f}};
  int BN = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  size_t Window = 0;
  for (int B = 0; B < BN; ++B)
    for (int Ch = 0; Ch < C; ++Ch)
      for (int Oy = 0; Oy < H / 2; ++Oy)
        for (int Ox = 0; Ox < W / 2; ++Ox, ++Window) {
          // Every third window keeps its random values.
          if (Window % 3 == 0)
            continue;
          const float *Case = Cases[(Window / 3 * 2 + Window % 3) % 11];
          float *Win = In.sampleData(B) +
                       (static_cast<size_t>(Ch) * H + Oy * 2) * W + Ox * 2;
          Win[0] = Case[0];
          Win[1] = Case[1];
          Win[W] = Case[2];
          Win[W + 1] = Case[3];
        }
}

} // namespace

TEST_F(NnKernelsTest, MaxPoolIsBitwiseTheOracleOnTiesZerosAndNaN) {
  // 30x30 rows take two vectors, the second overlapping the first; 13x13
  // and 7x9 rows are narrower than one AVX vector and odd, so a row and a
  // column are dropped.
  struct Shape {
    int H, W;
  } Shapes[] = {{30, 30}, {13, 13}, {7, 9}};
  for (int Threads : {1, 4}) {
    ThreadPool::setGlobalThreads(Threads);
    for (Backend Be : comparableBackends()) {
      setBackend(Be);
      for (const Shape &Sh : Shapes) {
        SCOPED_TRACE(::testing::Message()
                     << backendName(Be) << " " << Threads << " threads, "
                     << Sh.H << "x" << Sh.W);
        const int BN = 3, C = 4, OH = Sh.H / 2, OW = Sh.W / 2;
        Rng Rand(static_cast<uint64_t>(Sh.H * 100 + Sh.W));
        Tensor In = randomTensor({BN, C, Sh.H, Sh.W}, Rand);
        plantMaxPoolEdgeCases(In);
        Tensor GradOut = randomTensor({BN, C, OH, OW}, Rand);
        oracle::Reference Ref = oracle::runMaxPool(In, GradOut);

        MaxPool2D Pool;
        LayerCtx Ctx;
        Tensor Out = Pool.forward(In, &Ctx);
        Tensor GradIn = Pool.backward(GradOut, Ctx, /*NeedGradIn=*/true);
        ASSERT_EQ(Out.size(), Ref.Out.size());
        ASSERT_EQ(GradIn.size(), Ref.GradIn.size());
        expectBitwise(Out.data(), Ref.Out, "forward");
        expectBitwise(GradIn.data(), Ref.GradIn, "backward");

        // The window codes, straight from the kernel, name the oracle's
        // argmax in every window of every sample.
        std::vector<float> KOut(static_cast<size_t>(C) * OH * OW);
        std::vector<uint8_t> Code(KOut.size());
        for (int B = 0; B < BN; ++B) {
          maxPool2x2Kernel(In.sampleData(B), C, Sh.H, Sh.W, KOut.data(),
                           Code.data());
          size_t I = 0;
          for (int Ch = 0; Ch < C; ++Ch)
            for (int Oy = 0; Oy < OH; ++Oy)
              for (int Ox = 0; Ox < OW; ++Ox, ++I) {
                size_t Arg = oracle::maxPoolArgMax(In.sampleData(B), Sh.H,
                                                   Sh.W, Ch, Oy, Ox);
                size_t Base =
                    (static_cast<size_t>(Ch) * Sh.H + Oy * 2) * Sh.W + Ox * 2;
                size_t Expect = Arg - Base >= static_cast<size_t>(Sh.W)
                                    ? 2 + (Arg - Base - Sh.W)
                                    : Arg - Base;
                ASSERT_EQ(Code[I], Expect)
                    << "window code, sample " << B << " output " << I;
              }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Full network: a batch equals its samples run one at a time (CNN stack:
// reshape/conv/relu/pool/flatten/dense)
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, CnnForwardBatchMatchesScalarForward) {
  ThreadPool::setGlobalThreads(4);
  Rng R1(11), R2(11);
  Network Batched = buildDeepMindCnn(1, 16, {24}, 3, R1);
  Network Single = buildDeepMindCnn(1, 16, {24}, 3, R2);
  Rng Rand(7);
  const int BatchSize = 5, InSize = 16 * 16;
  Tensor In = randomTensor({BatchSize, InSize}, Rand);
  Tensor BatchOut = Batched.forward(In);
  for (int B = 0; B < BatchSize; ++B) {
    Tensor X({1, InSize});
    std::copy(In.sampleData(B), In.sampleData(B) + InSize, X.data());
    Tensor Y = Single.forward(X);
    std::vector<float> BatchRow(BatchOut.sampleData(B),
                                BatchOut.sampleData(B) + Y.size());
    expectClose(BatchRow, flat(Y), "cnn forward");
  }
}

//===----------------------------------------------------------------------===//
// Backend equivalence through the trainer
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, TrainerBackendsConverge) {
  // Train the same model+data under both engines; losses and predictions
  // must agree to within accumulated float-reassociation noise.
  auto AddData = [](SupervisedTrainer &Trainer) {
    Rng DataRand(5);
    for (int I = 0; I < 50; ++I) {
      float A = static_cast<float>(DataRand.uniform(-1, 1));
      float C = static_cast<float>(DataRand.uniform(-1, 1));
      Trainer.addSample({A, C, A * C, A - C}, {A + C, A * C});
    }
  };
  auto Run = [&](Backend B) {
    setBackend(B);
    Rng NetRand(21);
    SupervisedTrainer Trainer(buildDnn(4, {16, 8}, 2, NetRand), 1e-2);
    AddData(Trainer);
    Rng TrainRand(9);
    double Loss = Trainer.train(8, 16, TrainRand);
    std::vector<float> Pred = Trainer.predict({0.3f, -0.2f, 0.1f, 0.5f});
    return std::make_pair(Loss, Pred);
  };
  auto [BlockedLoss, BlockedPred] = Run(Backend::Blocked);
  if (simdSupported()) {
    auto [SimdLoss, SimdPred] = Run(Backend::Simd);
    EXPECT_NEAR(SimdLoss, BlockedLoss, 1e-3);
    expectClose(SimdPred, BlockedPred, "trainer predictions (simd)");
  }
  // And a multi-row prediction agrees with predicting each row alone.
  Rng NetRand(21);
  SupervisedTrainer Trainer(buildDnn(4, {16, 8}, 2, NetRand), 1e-2);
  AddData(Trainer);
  Rng TrainRand(9);
  Trainer.train(5, 16, TrainRand);
  const std::vector<float> Rows = {0.3f, -0.2f, 0.1f,   0.5f,
                                   -0.9f, 0.4f, -0.36f, -1.3f};
  std::vector<float> Both;
  Trainer.predictRowsInto(Rows.data(), 2, Both);
  ASSERT_EQ(Both.size(), 4u);
  expectClose({Both[0], Both[1]},
              Trainer.predict({Rows.begin(), Rows.begin() + 4}), "row 0");
  expectClose({Both[2], Both[3]},
              Trainer.predict({Rows.begin() + 4, Rows.end()}), "row 1");
}

//===----------------------------------------------------------------------===//
// Determinism: training loss is bitwise identical at any thread count
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, TrainingIsDeterministicAcrossThreadCounts) {
  auto Run = [] {
    Rng NetRand(77);
    // CNN model so conv kernels, sharded reductions and GEMMs all engage.
    SupervisedTrainer Trainer(buildDeepMindCnn(1, 12, {16}, 2, NetRand),
                              1e-3);
    Rng DataRand(3);
    for (int I = 0; I < 24; ++I) {
      std::vector<float> X(12 * 12);
      for (float &V : X)
        V = static_cast<float>(DataRand.uniform(0, 1));
      std::vector<float> Y = {X[0] + X[50],
                              static_cast<float>(DataRand.uniform(-1, 1))};
      Trainer.addSample(std::move(X), std::move(Y));
    }
    Rng TrainRand(13);
    return Trainer.train(3, 8, TrainRand);
  };
  std::vector<double> Losses;
  for (int Threads : {1, 2, 8}) {
    ThreadPool::setGlobalThreads(Threads);
    Losses.push_back(Run());
  }
  // Bitwise equality — the engine's schedules cannot change any rounding.
  EXPECT_EQ(Losses[0], Losses[1]);
  EXPECT_EQ(Losses[0], Losses[2]);
}

//===----------------------------------------------------------------------===//
// MaxPool sentinel regression
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, MaxPoolHandlesArbitrarilyNegativeInputs) {
  MaxPool2D Pool;
  Tensor In({1, 1, 2, 2});
  // All inputs below the old -1e30 sentinel; the max is at index 3.
  In[0] = -4e30f;
  In[1] = -3e30f;
  In[2] = -5e30f;
  In[3] = -2e30f;
  LayerCtx Ctx;
  Tensor Out = Pool.forward(In, &Ctx);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FLOAT_EQ(Out[0], -2e30f);
  Tensor G({1, 1, 1, 1});
  G[0] = 1.0f;
  Tensor GI = Pool.backward(G, Ctx, true);
  EXPECT_FLOAT_EQ(GI[3], 1.0f);
  EXPECT_FLOAT_EQ(GI[0], 0.0f);
}

//===----------------------------------------------------------------------===//
// Cross-backend layer equivalence (blocked and simd vs the oracle)
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, LayersEquivalentAcrossBackends) {
  ThreadPool::setGlobalThreads(2);
  Rng Rand(321);
  Tensor DenseIn = randomTensor({9, 7}, Rand);
  Tensor DenseGrad = randomTensor({9, 5}, Rand);
  Tensor ConvIn = randomTensor({9, 3, 10, 8}, Rand);
  Tensor ConvGrad = randomTensor({9, 4, 8, 6}, Rand);
  for (Backend B : comparableBackends()) {
    setBackend(B);
    Rng R1(17), R2(17);
    Dense D(7, 5, R1);
    Conv2D C(3, 4, 3, 1, R2);
    expectMatchesOracle(D, DenseIn, DenseGrad,
                        oracle::runDense(D, DenseIn, DenseGrad),
                        "dense x-backend");
    expectMatchesOracle(C, ConvIn, ConvGrad,
                        oracle::runConv(C, ConvIn, ConvGrad),
                        "conv x-backend");
  }
}

//===----------------------------------------------------------------------===//
// Packed-weight cache invalidation
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, PackedWeightsInvalidateAfterOptimizerStep) {
  for (Backend B : comparableBackends()) {
    setBackend(B);
    Rng R(29);
    Network Net = buildDnn(6, {8}, 3, R);
    Adam Opt(Net, 0.05);
    Rng Rand(5);
    Tensor In = randomTensor({4, 6}, Rand);
    Tensor Grad = randomTensor({4, 3}, Rand);

    ForwardCtx Ctx;
    Net.forward(In, &Ctx); // Warms the packed-weight caches.
    Net.backward(Grad, Ctx);
    Opt.step(4.0);

    // Post-step prediction must reflect the new weights: compare against a
    // network that holds the same parameters and has never packed.
    Rng R2(30);
    Network Fresh = buildDnn(6, {8}, 3, R2);
    Fresh.copyParamsFrom(Net);
    EXPECT_EQ(Net.forward(In).values(), Fresh.forward(In).values())
        << "stale packed weights after optimizer step, backend "
        << backendName(B);
  }
}

TEST_F(NnKernelsTest, PackedWeightsInvalidateAfterParamLoad) {
  for (Backend B : comparableBackends()) {
    setBackend(B);
    ModelConfig Cfg;
    Cfg.Name = "packed_reload";
    Cfg.HiddenLayers = {6};
    Cfg.Seed = 31;
    Cfg.LearningRate = 0.1;
    SlModel M(Cfg);
    Rng Rand(7);
    for (int I = 0; I < 6; ++I) {
      std::vector<float> X(5), Y(2);
      for (float &V : X)
        V = static_cast<float>(Rand.uniform(-1.5, 1.5));
      for (float &V : Y)
        V = static_cast<float>(Rand.uniform(-1.5, 1.5));
      M.addSample(X, Y, {{"y", 2}});
    }
    const std::vector<float> Rows = {0.3f, -0.2f, 0.1f, 0.5f, -1.0f,
                                     0.9f, 0.4f,  -0.6f, 1.2f, 0.0f,
                                     -0.3f, 0.8f, 0.2f, -0.4f, 0.6f};
    M.train(1, 6);
    std::vector<float> Expect, After;
    M.predictRows(Rows.data(), 3, Expect); // Packs the trained weights.

    std::string Path =
        ::testing::TempDir() + "nn_kernels_packed_reload.aumodel";
    ASSERT_TRUE(M.save(Path));

    // Perturb the parameters (repacking them), then load the saved ones
    // back: the prediction must come from the loaded weights.
    M.train(2, 3);
    ASSERT_TRUE(M.load(Path));

    M.predictRows(Rows.data(), 3, After);
    expectClose(After, Expect,
                "prediction after param reload (stale packed weights?)");
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// The input gradient is computed only when asked for
//===----------------------------------------------------------------------===//

namespace {

/// The two network families the paper trains, built identically from
/// \p Seed: a DNN over 12 features and a CNN over 16x16 frames.
Network buildFamily(bool Cnn, uint64_t Seed) {
  Rng R(Seed);
  return Cnn ? buildDeepMindCnn(1, 16, {12}, 3, R)
             : buildDnn(12, {16, 8}, 3, R);
}

/// Every parameter gradient of \p Net, in params() order.
std::vector<float> allGrads(Network &Net) {
  std::vector<float> Out;
  for (ParamView P : Net.params())
    Out.insert(Out.end(), P.Grads, P.Grads + P.Count);
  return Out;
}

} // namespace

TEST_F(NnKernelsTest, ParamGradsAreBitwiseTheSameWithoutTheInputGrad) {
  for (int Threads : {1, 4}) {
    ThreadPool::setGlobalThreads(Threads);
    for (Backend Be : comparableBackends()) {
      setBackend(Be);
      for (bool Cnn : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << backendName(Be) << " " << Threads << " threads, "
                     << (Cnn ? "cnn" : "dnn"));
        Rng Rand(23);
        Tensor In = randomTensor({5, Cnn ? 16 * 16 : 12}, Rand);
        Tensor Grad = randomTensor({5, 3}, Rand);
        std::vector<float> Grads[2];
        for (bool Want : {false, true}) {
          Network Net = buildFamily(Cnn, 19);
          Net.zeroGrads();
          ForwardCtx Ctx;
          Tensor Out = Net.forward(In, &Ctx);
          Workspace::release(Out);
          Tensor GradIn = Net.backward(Grad, Ctx, Want);
          if (Want)
            EXPECT_EQ(GradIn.shape(), In.shape());
          else
            EXPECT_TRUE(GradIn.empty());
          Workspace::release(GradIn);
          Grads[Want] = allGrads(Net);
        }
        ASSERT_FALSE(Grads[0].empty());
        expectBitwise(Grads[0].data(), Grads[1], "parameter gradients");
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Workspace contents are unspecified: no consumer reads what acquire returns
//===----------------------------------------------------------------------===//

namespace {

/// One forward and backward of \p Net, the input gradient included: the
/// outputs, then the input gradients, then every parameter gradient.
std::vector<float> forwardBackward(Network &Net, const Tensor &In,
                                   const Tensor &Grad) {
  Net.zeroGrads();
  ForwardCtx Ctx;
  Tensor Out = Net.forward(In, &Ctx);
  Tensor GradIn = Net.backward(Grad, Ctx, /*WantGradIn=*/true);
  std::vector<float> All = flat(Out);
  std::vector<float> Rest = flat(GradIn);
  All.insert(All.end(), Rest.begin(), Rest.end());
  Rest = allGrads(Net);
  All.insert(All.end(), Rest.begin(), Rest.end());
  Workspace::release(Out);
  Workspace::release(GradIn);
  return All;
}

/// Parks NaN-filled buffers of every activation shape of \p Net at \p In
/// (its input and each layer's output, twice each: one for the forward
/// pass and one for the backward) on this thread's workspace freelist.
void poisonWorkspace(const Network &Net, const Tensor &In) {
  std::vector<std::vector<int>> Shapes = {In.shape()};
  Tensor X = In;
  for (size_t I = 0; I != Net.numLayers(); ++I) {
    Tensor Y = Net.layer(I).forward(X, nullptr);
    Shapes.push_back(Y.shape());
    X = std::move(Y);
  }
  std::vector<Tensor> Held;
  for (int Copy = 0; Copy < 2; ++Copy)
    for (const std::vector<int> &S : Shapes) {
      Held.push_back(Workspace::acquire(S));
      Held.back().fill(std::numeric_limits<float>::quiet_NaN());
    }
  for (Tensor &T : Held)
    Workspace::release(T);
}

} // namespace

TEST_F(NnKernelsTest, PoisonedWorkspaceBuffersChangeNoResult) {
  for (int Threads : {1, 4}) {
    ThreadPool::setGlobalThreads(Threads);
    for (Backend Be : comparableBackends()) {
      setBackend(Be);
      for (bool Cnn : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << backendName(Be) << " " << Threads << " threads, "
                     << (Cnn ? "cnn" : "dnn"));
        Rng Rand(31);
        Tensor In = randomTensor({6, Cnn ? 16 * 16 : 12}, Rand);
        Tensor Grad = randomTensor({6, 3}, Rand);

        Workspace::clear();
        Network Clean = buildFamily(Cnn, 37);
        std::vector<float> Expect = forwardBackward(Clean, In, Grad);

        Network Poisoned = buildFamily(Cnn, 37);
        Workspace::clear();
        poisonWorkspace(Poisoned, In);
        ASSERT_GT(Workspace::freeCount(), 0u);
        std::vector<float> Got = forwardBackward(Poisoned, In, Grad);
        ASSERT_EQ(Got.size(), Expect.size());
        expectBitwise(Got.data(), Expect, "poisoned run");
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Zero-allocation steady state (workspace arena + caller-owned contexts)
//===----------------------------------------------------------------------===//

namespace {

/// Inputs for the two network families at batch 8: a DNN over 12 features
/// and a CNN over 12x12 frames.
struct FamilyInputs {
  Tensor DnnIn, CnnIn;
  FamilyInputs() {
    Rng Rand(9);
    DnnIn = randomTensor({8, 12}, Rand);
    CnnIn = randomTensor({8, 1, 12, 12}, Rand);
  }
};

/// Context-free forward passes of a DNN and a CNN.
struct ForwardWork : FamilyInputs {
  Rng R{41};
  Network Dnn = buildDnn(12, {16, 16}, 4, R);
  Network Cnn = buildDeepMindCnn(1, 12, {16}, 3, R);

  void pass() {
    Tensor A = Dnn.forward(DnnIn);
    Workspace::release(A);
    Tensor C = Cnn.forward(CnnIn);
    Workspace::release(C);
  }
};

/// Training steps of a DNN and a CNN: forward with a context, the MSE loss,
/// backward and Adam::step.
struct TrainStepWork : FamilyInputs {
  Rng R{41};
  Network Dnn = buildDnn(12, {16, 16}, 4, R);
  Network Cnn = buildDeepMindCnn(1, 12, {16}, 3, R);
  Adam DnnOpt{Dnn, 1e-3}, CnnOpt{Cnn, 1e-3};
  ForwardCtx DnnCtx, CnnCtx;
  Tensor DnnTarget{{8, 4}, 0.5f}, CnnTarget{{8, 3}, 0.5f};
  Tensor DnnGrad, CnnGrad;

  static void step(Network &Net, Adam &Opt, ForwardCtx &Ctx,
                   const Tensor &In, const Tensor &Target, Tensor &Grad) {
    Tensor Pred = Net.forward(In, &Ctx);
    mseLossBatch(Pred, Target, Grad);
    Workspace::release(Pred);
    Net.backward(Grad, Ctx);
    Opt.step(1.0 / 8);
  }

  void pass() {
    step(Dnn, DnnOpt, DnnCtx, DnnIn, DnnTarget, DnnGrad);
    step(Cnn, CnnOpt, CnnCtx, CnnIn, CnnTarget, CnnGrad);
  }
};

/// A trained supervised model of \p Type over 12 features (a 12x12 frame
/// for the CNN), with 8 recorded samples.
std::unique_ptr<SlModel> trainedSlModel(ModelType Type) {
  ModelConfig Cfg;
  Cfg.Name = "steady";
  Cfg.Type = Type;
  Cfg.HiddenLayers = {16};
  Cfg.FrameSide = 12;
  Cfg.FrameChannels = 1;
  auto M = std::make_unique<SlModel>(Cfg);
  const int NX = Type == ModelType::CNN ? 144 : 12;
  Rng Rand(5);
  for (int I = 0; I < 8; ++I) {
    std::vector<float> X(static_cast<size_t>(NX));
    for (float &V : X)
      V = static_cast<float>(Rand.uniform(-1.0, 1.0));
    M->addSample(X, {X[0] + X[1], X[2]}, {{"y", 2}});
  }
  M->train(1, 4);
  return M;
}

/// TS predictions of 8 rows served from published snapshots of a DNN and
/// a CNN model, the way shared-inference readers serve them.
struct SnapshotPredictWork : FamilyInputs {
  std::unique_ptr<ModelSnapshot> Dnn =
      trainedSlModel(ModelType::DNN)->snapshot();
  std::unique_ptr<ModelSnapshot> Cnn =
      trainedSlModel(ModelType::CNN)->snapshot();
  std::vector<float> Out;

  void pass() {
    predictRows(Dnn->Net, Dnn->Norm, DnnIn.data(), 8, Out);
    predictRows(Cnn->Net, Cnn->Norm, CnnIn.data(), 8, Out);
  }
};

} // namespace

TEST_F(NnKernelsTest, SteadyStateForwardBatchDoesNotAllocate) {
  expectSteadyStateDoesNotAllocate<ForwardWork>(1, "forward");
}

TEST_F(NnKernelsTest, SteadyStateForwardBatchDoesNotAllocateAtFourThreads) {
  expectSteadyStateDoesNotAllocate<ForwardWork>(4, "forward");
}

TEST_F(NnKernelsTest, SteadyStateTrainingStepDoesNotAllocate) {
  expectSteadyStateDoesNotAllocate<TrainStepWork>(1, "training step");
}

TEST_F(NnKernelsTest, SteadyStateTrainingStepDoesNotAllocateAtFourThreads) {
  expectSteadyStateDoesNotAllocate<TrainStepWork>(4, "training step");
}

TEST_F(NnKernelsTest, SteadyStateSnapshotPredictDoesNotAllocate) {
  expectSteadyStateDoesNotAllocate<SnapshotPredictWork>(1, "snapshot predict");
}

TEST_F(NnKernelsTest,
       SteadyStateSnapshotPredictDoesNotAllocateAtFourThreads) {
  expectSteadyStateDoesNotAllocate<SnapshotPredictWork>(4, "snapshot predict");
}

//===----------------------------------------------------------------------===//
// One published network, many concurrent readers
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, ConcurrentForwardsOnOnePublishedNetworkMatchSerial) {
  // Eight threads run forward at once on one packed, const network — what
  // shared-inference readers do with a published snapshot. Forward only
  // reads the network, so each result is bitwise the serial one (and the
  // TSan job sees no write to the shared layers).
  constexpr int Readers = 8, Calls = 20;
  ThreadPool::setGlobalThreads(4);
  for (Backend Be : comparableBackends()) {
    setBackend(Be);
    for (bool Cnn : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << backendName(Be) << " " << (Cnn ? "cnn" : "dnn"));
      Network Live = buildFamily(Cnn, 43);
      Network Copy = Live.clone();
      Copy.pack();
      const Network &Published = Copy;
      std::vector<Tensor> Ins, Serial;
      Rng Rand(47);
      for (int K = 0; K < Readers; ++K) {
        Ins.push_back(randomTensor({1 + K % 3, Cnn ? 16 * 16 : 12}, Rand));
        Serial.push_back(Published.forward(Ins.back()));
      }
      std::vector<std::vector<Tensor>> Got(Readers);
      std::atomic<int> Arrived{0};
      std::vector<std::thread> Threads;
      for (int K = 0; K < Readers; ++K)
        Threads.emplace_back([&, K] {
          ++Arrived;
          while (Arrived.load() < Readers)
            std::this_thread::yield();
          for (int C = 0; C < Calls; ++C)
            Got[static_cast<size_t>(K)].push_back(
                Published.forward(Ins[static_cast<size_t>(K)]));
        });
      for (std::thread &T : Threads)
        T.join();
      for (int K = 0; K < Readers; ++K)
        for (const Tensor &T : Got[static_cast<size_t>(K)]) {
          ASSERT_EQ(T.shape(), Serial[static_cast<size_t>(K)].shape());
          expectBitwise(T.data(), flat(Serial[static_cast<size_t>(K)]),
                        "concurrent forward");
        }
      // The copy serves what the live network computes.
      for (int K = 0; K < Readers; ++K)
        expectBitwise(Live.forward(Ins[static_cast<size_t>(K)]).data(),
                      flat(Serial[static_cast<size_t>(K)]), "copy vs live");
    }
  }
}
