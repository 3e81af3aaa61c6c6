//===- tests/AllocCounter.h - Steady-state allocation harness --*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A global allocation counter: every heap allocation in the test binary
/// ticks it, so a test can prove a region performs zero allocations (the
/// steady-state contract of the workspace arena, the replay ring and the
/// staging buffers). Replacing the global operators is the only way to
/// observe allocations made inside the library.
///
/// The replacement operators are definitions, so include this header from
/// exactly one source file of a test binary.
///
//===----------------------------------------------------------------------===//

#ifndef AU_TESTS_ALLOCCOUNTER_H
#define AU_TESTS_ALLOCCOUNTER_H

#include "nn/Gemm.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace {
std::atomic<long> GHeapAllocs{0};
} // namespace

void *operator new(std::size_t Sz) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Both engines, simd only where the CPU can run it.
std::vector<au::nn::Backend> comparableBackends() {
  std::vector<au::nn::Backend> Bs = {au::nn::Backend::Blocked};
  if (au::nn::simdSupported())
    Bs.push_back(au::nn::Backend::Simd);
  return Bs;
}

/// Runs warm passes of a fresh \p Work on a pool of \p Threads, under each
/// engine, and checks that a further eight allocate nothing on any thread.
template <typename Work>
void expectSteadyStateDoesNotAllocate(int Threads, const char *What) {
  using namespace au;
  ThreadPool::setGlobalThreads(Threads);
  for (nn::Backend B : comparableBackends()) {
    nn::setBackend(B);
    auto W = std::make_unique<Work>();

    // Building the work above must have ticked the counter — guards
    // against the replacement operators not being linked in, which would
    // make the zero-alloc assertion below pass vacuously.
    ASSERT_GT(GHeapAllocs.load(std::memory_order_relaxed), 0);

    // Warm-up: buffers converge on the workload's high-water mark, on every
    // thread that runs chunks. Chunks go to whichever thread claims them
    // first, so first run one pass on each thread of the team: chunks that
    // wait for one another run on distinct threads, and the loops nested in
    // a pass run inline there. The passes take turns (one set of networks).
    // parallelFor may run any loop inline, which would deadlock this
    // barrier; it relies on the rule that a site its issuing thread has not
    // measured is dispatched, and, for the next backend's call, on a
    // measured cost (a whole pass per chunk) far above the inline cutoff.
    std::atomic<int> Arrived{0};
    std::mutex PassM;
    ThreadPool::global().parallelFor(0, Threads, 1, [&](size_t, size_t) {
      ++Arrived;
      while (Arrived.load() < Threads)
        std::this_thread::yield();
      std::lock_guard<std::mutex> G(PassM);
      W->pass();
    });
    for (int I = 0; I < 3; ++I)
      W->pass();

    long Before = GHeapAllocs.load(std::memory_order_relaxed);
    for (int I = 0; I < 8; ++I)
      W->pass();
    long After = GHeapAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(After, Before)
        << "steady-state " << What << " allocated under backend "
        << nn::backendName(B) << " at " << Threads << " threads";
  }
}

} // namespace

#endif // AU_TESTS_ALLOCCOUNTER_H
