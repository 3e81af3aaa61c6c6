//===- apps/common/VectorEnv.cpp - Parallel actor pool --------------------===//

#include "apps/common/VectorEnv.h"

#include "support/ThreadPool.h"

#include <cassert>

using namespace au;
using namespace au::apps;

VectorEnv::VectorEnv(const GameEnvFactory &Factory, int NumActors,
                     uint64_t Seed) {
  assert(NumActors > 0 && "actor pool needs at least one actor");
  Envs.reserve(static_cast<size_t>(NumActors));
  Streams.reserve(static_cast<size_t>(NumActors));
  for (int A = 0; A < NumActors; ++A) {
    Envs.push_back(Factory());
    assert(Envs.back() && "factory produced no environment");
    Streams.push_back(Rng::stream(Seed, static_cast<uint64_t>(A)));
  }
}

void VectorEnv::resetAll(const std::function<uint64_t(int)> &SeedOf) {
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(size()), 1, [&](size_t B, size_t E) {
        for (size_t A = B; A != E; ++A)
          Envs[A]->reset(SeedOf(static_cast<int>(A)));
      });
}

void VectorEnv::stepWhere(const uint8_t *Active, const int *Actions,
                          float *Rewards, uint8_t *Terminals) {
  assert(Actions && Rewards && Terminals && "null step buffers");
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(size()), 1, [&](size_t B, size_t E) {
        for (size_t A = B; A != E; ++A) {
          if (Active && !Active[A])
            continue;
          Rewards[A] = Envs[A]->step(Actions[A]);
          Terminals[A] = Envs[A]->terminal() ? 1 : 0;
        }
      });
}
