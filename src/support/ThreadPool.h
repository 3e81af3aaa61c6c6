//===- support/ThreadPool.h - Deterministic work-sharing pool --*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent fork-join team exposing a parallelFor primitive, used by the
/// NN compute engine for row-parallel GEMM and minibatch data parallelism,
/// and by the actor and serving loops for per-lane work.
///
/// A pool of N threads is N - 1 workers plus the thread that issues a loop,
/// so N threads run on N cores. A parallelFor publishes its range, grain and
/// body into one preallocated job slot, bumps an epoch, runs chunks itself
/// and joins on an atomic counter: no allocation, no lock and no condition
/// variable on a hot team. Idle workers poll the epoch for SpinBudget, then
/// park; a dispatch takes the park mutex only when some worker is parked.
/// Nested loops, and loops issued while another thread's loop owns the team,
/// run inline on the calling thread, so concurrent callers never queue.
///
/// A loop also runs inline when its issuing thread last measured its call
/// site below InlineBelow, about the cost of a dispatch; an unmeasured site
/// is dispatched. Any loop may thus run all its chunks on one thread, so no
/// chunk may wait on another.
///
/// Two properties make results reproducible at any thread count:
///
///  * parallelFor splits the iteration space into chunks whose boundaries
///    depend only on the range and the grain size — never on the number of
///    threads — and every chunk writes disjoint data, so the schedule cannot
///    change any result.
///  * parallelShardedSum gives each fixed shard of the iteration space its
///    own zero-initialized accumulation buffer, then combines the buffers
///    with a pairwise tree reduction in a fixed order, so floating-point
///    rounding is identical for 1, 2, or 64 threads.
///
/// The global pool is sized by the AU_NN_THREADS environment variable
/// (default: the hardware concurrency), counting the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef AU_SUPPORT_THREADPOOL_H
#define AU_SUPPORT_THREADPOOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace au {

/// Non-owning reference to a `void(size_t, size_t)` loop body. parallelFor
/// joins before returning, so the referenced callable always outlives its
/// use; taking this instead of std::function keeps the steady-state hot path
/// free of type-erasure heap allocations. Two pointers, trivially copyable.
class LoopBodyRef {
public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, LoopBodyRef>>>
  LoopBodyRef(F &&Fn) // NOLINT: implicit by design, mirrors function_ref.
      : Obj(const_cast<void *>(static_cast<const void *>(&Fn))),
        Call([](void *O, size_t B, size_t E) {
          (*static_cast<std::remove_reference_t<F> *>(O))(B, E);
        }) {}

  void operator()(size_t B, size_t E) const { Call(Obj, B, E); }

  /// The call thunk, unique per callable type: names the loop's call site.
  uintptr_t site() const { return reinterpret_cast<uintptr_t>(Call); }

private:
  void *Obj;
  void (*Call)(void *, size_t, size_t);
};

/// Non-owning reference to a `void(size_t, size_t, float *)` shard body for
/// parallelShardedSum; same rationale as LoopBodyRef.
class ShardBodyRef {
public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ShardBodyRef>>>
  ShardBodyRef(F &&Fn) // NOLINT: implicit by design.
      : Obj(const_cast<void *>(static_cast<const void *>(&Fn))),
        Call([](void *O, size_t B, size_t E, float *Acc) {
          (*static_cast<std::remove_reference_t<F> *>(O))(B, E, Acc);
        }) {}

  void operator()(size_t B, size_t E, float *Acc) const {
    Call(Obj, B, E, Acc);
  }

  /// The call thunk, unique per callable type: names the caller's site.
  uintptr_t site() const { return reinterpret_cast<uintptr_t>(Call); }

private:
  void *Obj;
  void (*Call)(void *, size_t, size_t, float *);
};

/// A fork-join team of worker threads executing chunked parallel loops.
class ThreadPool {
public:
  /// Creates a team that runs loop bodies on \p NumThreads threads total:
  /// NumThreads - 1 workers plus whichever thread issues the loop. With
  /// NumThreads <= 1 no workers are spawned and every parallelFor runs
  /// inline on the calling thread.
  explicit ThreadPool(int NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return Threads; }

  /// How long an idle worker polls for the next loop before it parks on a
  /// condition variable.
  static constexpr std::chrono::microseconds SpinBudget{100};

  /// A loop whose last measured serial cost is below this runs inline. A
  /// dispatch costs about 2 us, and a team of N saves a loop of serial time W
  /// at most W (N - 1) / N, less the misses of moving its data across cores;
  /// DESIGN.md section 6 has the sweep that sized it.
  static constexpr std::chrono::nanoseconds InlineBelow{8000};

  /// A source of nanosecond timestamps for the inline policy's cost
  /// measurements.
  using CostClock = int64_t (*)();

  /// Makes the inline policy measure loop costs on \p Clock instead of
  /// steady_clock (nullptr restores steady_clock). A test installs a clock
  /// its loop bodies advance by hand, so that the policy's decisions follow
  /// the costs the test sets rather than the host's scheduler. Must not race
  /// with parallel work.
  static void setCostClock(CostClock Clock);

  /// Runs \p Body over [Begin, End), partitioned into chunks of at most
  /// \p Grain iterations. Body receives half-open sub-ranges. Chunk
  /// boundaries are a pure function of the range and grain, so any
  /// computation whose chunks write disjoint data is deterministic at every
  /// thread count. Runs inline when called from inside a Body (nested),
  /// while another thread's loop occupies the team, or when this thread last
  /// measured this call site below InlineBelow; a site it has not measured is
  /// dispatched. A chunk must therefore never wait for another chunk. Joins
  /// before returning, so passing a reference to a stack callable is safe.
  void parallelFor(size_t Begin, size_t End, size_t Grain, LoopBodyRef Body) {
    parallelFor(Begin, End, Grain, Body, Body.site());
  }

  /// The process-wide pool, created on first use with AU_NN_THREADS threads
  /// (default: hardware concurrency).
  static ThreadPool &global();

  /// Replaces the global pool with one of \p NumThreads threads. Must not
  /// race with parallel work; intended for tests and benchmarks.
  static void setGlobalThreads(int NumThreads);

private:
  friend const float *parallelShardedReduce(size_t, size_t, size_t,
                                            ShardBodyRef);
  /// parallelFor, with its cost measured under \p Site.
  void parallelFor(size_t Begin, size_t End, size_t Grain, LoopBodyRef Body,
                   uintptr_t Site);
  void workerLoop();
  /// Blocks until the published epoch differs from \p Seen (or the pool
  /// stops) and returns the job word.
  uint64_t awaitJob(uint64_t Seen);
  /// Claims and runs chunks of the job of epoch \p Epoch until none is left;
  /// returns how many this thread ran and, given \p BodyNs, adds their time.
  size_t runChunks(uint64_t Epoch, int64_t *BodyNs = nullptr);

  const int Threads;

  /// The job word: epoch << 32 | chunks not yet claimed. Each parallelFor
  /// bumps the epoch; participants claim chunks by CAS, which fails once
  /// the epoch has moved on, so a late worker never reads a later job's
  /// fields.
  alignas(64) std::atomic<uint64_t> JobWord{0};
  /// Chunks not yet finished; the issuing thread joins when it reaches 0.
  alignas(64) std::atomic<size_t> Pending{0};

  /// The job slot, written by the issuing thread before it publishes the
  /// epoch and read by a participant only after it has claimed a chunk.
  alignas(64) const LoopBodyRef *JobBody = nullptr;
  size_t JobBegin = 0, JobEnd = 0, JobGrain = 1, JobChunks = 0;

  /// Set while some thread's loop owns the team.
  std::atomic<bool> Busy{false};
  std::atomic<bool> Stop{false};

  /// Workers waiting on ParkCv; a dispatch takes ParkM only when nonzero.
  std::atomic<int> Parked{0};
  std::mutex ParkM;
  std::condition_variable ParkCv;

  std::vector<std::thread> Workers;
};

/// Data-parallel accumulation over [0, Items) with reproducible rounding:
/// the range is split into at most 16 shards (a pure function of \p Items
/// and \p ShardGrain), \p Body accumulates each shard into its own
/// zero-initialized buffer of \p AccSize floats, and the buffers are folded
/// pairwise in a fixed tree order, then added into \p Out. The shard buffers
/// are thread_local to the issuing thread (reused across calls), so this
/// must not be called recursively from inside its own Body.
void parallelShardedSum(size_t Items, size_t ShardGrain, size_t AccSize,
                        ShardBodyRef Body, float *Out);

/// parallelShardedSum without the final add: returns the reduced buffer of
/// \p AccSize floats (nullptr when \p Items or \p AccSize is 0) for a
/// caller that adds it in another layout. The buffer is the issuing
/// thread's; it stays valid until that thread's next sharded call.
const float *parallelShardedReduce(size_t Items, size_t ShardGrain,
                                   size_t AccSize, ShardBodyRef Body);

} // namespace au

#endif // AU_SUPPORT_THREADPOOL_H
