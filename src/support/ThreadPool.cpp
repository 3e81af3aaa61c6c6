//===- support/ThreadPool.cpp - Deterministic fork-join team -------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <memory>

using namespace au;

namespace {

/// Set on worker threads, and on an issuing thread while it runs chunks;
/// nested parallelFor calls from such a thread run inline.
thread_local bool InParallelRegion = false;

/// The job word's low half: chunks not yet claimed.
constexpr uint64_t ChunkMask = 0xffffffffu;

/// A spinning thread reads the clock once per this many pauses.
constexpr unsigned PausesPerClockRead = 64;

/// What an issuing thread last measured for one loop site: the estimated
/// time to run all its chunks on one thread, and its calls. Direct-mapped and
/// thread_local, so a lookup neither allocates nor writes a shared line.
struct SiteCost {
  uintptr_t Site;
  size_t Chunks;
  int64_t SerialNs;
  uint32_t Calls;
};
thread_local SiteCost SiteCosts[64];

/// A dispatched run estimates the serial cost from the issuer's time in chunk
/// bodies (or, if it ran none, the loop's wall time), which includes
/// cross-core misses an inline run does not pay. So a dispatched site
/// estimated below ReprobeFactor * InlineBelow runs inline on its second call
/// and on every ReprobeEvery-th call after, to measure itself again.
constexpr int64_t ReprobeFactor = 4;
constexpr uint32_t ReprobeEvery = 64;

/// The inline policy's cost source; null means steady_clock.
std::atomic<ThreadPool::CostClock> CostSource{nullptr};

/// Now, in nanoseconds, on the inline policy's cost clock.
int64_t costNow() {
  if (ThreadPool::CostClock C = CostSource.load(std::memory_order_relaxed))
    return C();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

int defaultThreadCount() {
  if (const char *Env = std::getenv("AU_NN_THREADS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return N;
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? static_cast<int>(HW) : 1;
}

std::mutex GlobalM;
std::unique_ptr<ThreadPool> Global; // Guarded by GlobalM.
std::atomic<ThreadPool *> GlobalFast{nullptr};

} // namespace

ThreadPool::ThreadPool(int NumThreads) : Threads(std::max(1, NumThreads)) {
  Workers.reserve(static_cast<size_t>(Threads - 1));
  for (int I = 1; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  Stop.store(true);
  { std::lock_guard<std::mutex> G(ParkM); }
  ParkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

uint64_t ThreadPool::awaitJob(uint64_t Seen) {
  auto Ready = [&](uint64_t W) {
    return (W >> 32) != Seen || Stop.load(std::memory_order_relaxed);
  };
  auto Deadline = std::chrono::steady_clock::now() + SpinBudget;
  for (unsigned I = 1;; ++I) {
    uint64_t W = JobWord.load(std::memory_order_relaxed);
    if (Ready(W))
      return W;
    cpuRelax();
    if (I % PausesPerClockRead == 0 &&
        std::chrono::steady_clock::now() > Deadline)
      break;
  }
  // Park. The seq_cst increment and epoch load pair with the dispatcher's
  // seq_cst epoch store and Parked load: either this worker sees the new
  // epoch, or the dispatcher sees it parked and takes ParkM to notify.
  std::unique_lock<std::mutex> Lk(ParkM);
  Parked.fetch_add(1);
  uint64_t W = 0;
  ParkCv.wait(Lk, [&] { return Ready(W = JobWord.load()); });
  Parked.fetch_sub(1, std::memory_order_relaxed);
  return W;
}

size_t ThreadPool::runChunks(uint64_t Epoch, int64_t *BodyNs) {
  size_t Ran = 0;
  uint64_t W = JobWord.load(std::memory_order_relaxed);
  while ((W >> 32) == Epoch && (W & ChunkMask) != 0) {
    // A successful claim pins the job: its issuer cannot return, and so
    // cannot overwrite the slot, until this chunk is counted off Pending.
    if (!JobWord.compare_exchange_weak(W, W - 1, std::memory_order_acquire,
                                       std::memory_order_relaxed))
      continue;
    size_t C = JobChunks - (W & ChunkMask);
    size_t B = JobBegin + C * JobGrain;
    int64_t T0 = BodyNs ? costNow() : 0;
    (*JobBody)(B, std::min(JobEnd, B + JobGrain));
    if (BodyNs)
      *BodyNs += costNow() - T0;
    Pending.fetch_sub(1, std::memory_order_release);
    ++Ran;
    W = JobWord.load(std::memory_order_relaxed);
  }
  return Ran;
}

void ThreadPool::workerLoop() {
  InParallelRegion = true;
  uint64_t Seen = 0;
  for (;;) {
    uint64_t W = awaitJob(Seen);
    if (Stop.load(std::memory_order_relaxed))
      return;
    Seen = W >> 32;
    runChunks(Seen);
  }
}

void ThreadPool::parallelFor(size_t Begin, size_t End, size_t Grain,
                             LoopBodyRef Body, uintptr_t Site) {
  if (Begin >= End)
    return;
  assert(Grain > 0 && "parallelFor grain must be positive");
  size_t N = End - Begin;
  if (Workers.empty() || InParallelRegion || N <= Grain ||
      (N - 1) / Grain >= ChunkMask) {
    Body(Begin, End);
    return;
  }
  size_t Chunks = (N - 1) / Grain + 1;
  SiteCost &Slot = SiteCosts[((Site ^ uint64_t(Chunks) << 48) *
                              0x9e3779b97f4a7c15ull) >> 58]; // Fibonacci hash.
  SiteCost Cost = Slot;
  if (Cost.Site != Site || Cost.Chunks != Chunks)
    Cost = {Site, Chunks, INT64_MAX, 0}; // Unmeasured: dispatch.
  int64_t Cutoff = InlineBelow.count();
  bool Inline = Cost.SerialNs < Cutoff ||
                (Cost.SerialNs < ReprobeFactor * Cutoff &&
                 Cost.Calls % ReprobeEvery == 1);
  ++Cost.Calls;
  if (Inline || Busy.exchange(true, std::memory_order_acquire)) {
    int64_t T0 = costNow();
    Body(Begin, End);
    Cost.SerialNs = costNow() - T0;
    Slot = Cost; // The body's own loops may have taken the slot meanwhile.
    return;
  }
  int64_t T0 = costNow();
  JobBody = &Body;
  JobBegin = Begin;
  JobEnd = End;
  JobGrain = Grain;
  JobChunks = Chunks;
  Pending.store(Chunks, std::memory_order_relaxed);
  uint64_t Epoch =
      ((JobWord.load(std::memory_order_relaxed) >> 32) + 1) & ChunkMask;
  JobWord.store(Epoch << 32 | Chunks);
  if (Parked.load() > 0) {
    { std::lock_guard<std::mutex> G(ParkM); }
    ParkCv.notify_all();
  }

  InParallelRegion = true;
  int64_t BodyNs = 0;
  size_t Ran = runChunks(Epoch, &BodyNs);
  InParallelRegion = false;

  auto Deadline = std::chrono::steady_clock::now() + SpinBudget;
  for (unsigned I = 1; Pending.load(std::memory_order_acquire) != 0; ++I) {
    cpuRelax();
    if (I % PausesPerClockRead == 0 &&
        std::chrono::steady_clock::now() > Deadline)
      std::this_thread::yield();
  }
  // An issuer that got no chunk of its own takes the loop's wall time.
  Cost.SerialNs = Ran ? BodyNs / int64_t(Ran) * int64_t(Chunks)
                      : costNow() - T0;
  Slot = Cost;
  Busy.store(false, std::memory_order_release);
}

void ThreadPool::setCostClock(CostClock Clock) {
  CostSource.store(Clock, std::memory_order_relaxed);
}

ThreadPool &ThreadPool::global() {
  if (ThreadPool *P = GlobalFast.load(std::memory_order_acquire))
    return *P;
  std::lock_guard<std::mutex> G(GlobalM);
  if (!Global) {
    Global = std::make_unique<ThreadPool>(defaultThreadCount());
    GlobalFast.store(Global.get(), std::memory_order_release);
  }
  return *Global;
}

void ThreadPool::setGlobalThreads(int NumThreads) {
  std::lock_guard<std::mutex> G(GlobalM);
  Global = std::make_unique<ThreadPool>(NumThreads);
  GlobalFast.store(Global.get(), std::memory_order_release);
}

void au::parallelShardedSum(size_t Items, size_t ShardGrain, size_t AccSize,
                            ShardBodyRef Body, float *Out) {
  if (const float *Sum = parallelShardedReduce(Items, ShardGrain, AccSize,
                                               Body))
    for (size_t K = 0; K != AccSize; ++K)
      Out[K] += Sum[K];
}

const float *au::parallelShardedReduce(size_t Items, size_t ShardGrain,
                                       size_t AccSize, ShardBodyRef Body) {
  if (Items == 0 || AccSize == 0)
    return nullptr;
  assert(ShardGrain > 0 && "shard grain must be positive");
  // Shard structure is a pure function of the workload, never of the thread
  // count, so the reduction tree (and its rounding) is reproducible.
  constexpr size_t MaxShards = 16;
  size_t NumShards = std::min(MaxShards, (Items + ShardGrain - 1) / ShardGrain);
  size_t Span = (Items + NumShards - 1) / NumShards;
  // Reused across calls on this thread; assign() zeroes within the retained
  // capacity, so steady-state training does not allocate here.
  static thread_local std::vector<float> ShardBufs;
  std::vector<float> &Bufs = ShardBufs;
  Bufs.assign(NumShards * AccSize, 0.0f);
  // Measured under the caller's site: the wrapper serves every caller.
  ThreadPool::global().parallelFor(0, NumShards, 1, [&](size_t B, size_t E) {
    for (size_t S = B; S != E; ++S) {
      size_t Lo = S * Span;
      size_t Hi = std::min(Items, Lo + Span);
      if (Lo < Hi)
        Body(Lo, Hi, &Bufs[S * AccSize]);
    }
  }, Body.site());
  // Pairwise tree reduction in fixed order: shard i absorbs shard i + Step.
  for (size_t Step = 1; Step < NumShards; Step *= 2)
    for (size_t I = 0; I + Step < NumShards; I += 2 * Step) {
      float *Dst = &Bufs[I * AccSize];
      const float *Src = &Bufs[(I + Step) * AccSize];
      for (size_t K = 0; K != AccSize; ++K)
        Dst[K] += Src[K];
    }
  return Bufs.data();
}
