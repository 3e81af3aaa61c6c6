//===- apps/common/VectorEnv.h - Parallel actor pool -----------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fleet of K independent GameEnv instances stepped in parallel on the
/// global ThreadPool — the actor pool of the parallel rollout engine
/// (DESIGN.md §8). Each actor owns its env plus a counter-based RNG stream
/// derived from (seed, actor-id), so anything an actor draws is a pure
/// function of its identity, never of thread schedule: results are bitwise
/// reproducible at any thread count.
///
/// Parallel stepping is safe because actors are fully disjoint: env k's
/// state, reward slot, terminal slot and stream are touched only by the
/// chunk that owns index k (parallelFor chunk boundaries are
/// thread-count-independent, and here the grain is one actor).
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_COMMON_VECTORENV_H
#define AU_APPS_COMMON_VECTORENV_H

#include "apps/common/GameEnv.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace au {
namespace apps {

/// Creates one fresh environment instance (called K times for K actors).
using GameEnvFactory = std::function<std::unique_ptr<GameEnv>()>;

/// K independent environments stepped as one vectorized environment.
class VectorEnv {
public:
  /// Builds \p NumActors instances via \p Factory; per-actor RNG streams
  /// derive from \p Seed and the actor index.
  VectorEnv(const GameEnvFactory &Factory, int NumActors, uint64_t Seed = 7);

  int size() const { return static_cast<int>(Envs.size()); }
  GameEnv &env(int Actor) { return *Envs[static_cast<size_t>(Actor)]; }
  const GameEnv &env(int Actor) const {
    return *Envs[static_cast<size_t>(Actor)];
  }

  /// Actor \p Actor's private RNG stream (scripted policies, jitter).
  Rng &stream(int Actor) { return Streams[static_cast<size_t>(Actor)]; }

  /// Resets actor \p Actor's episode.
  void reset(int Actor, uint64_t EpisodeSeed) {
    env(Actor).reset(EpisodeSeed);
  }

  /// Resets every actor in parallel; actor k gets \p SeedOf(k). SeedOf must
  /// be safe to call concurrently (it is called once per actor).
  void resetAll(const std::function<uint64_t(int)> &SeedOf);

  /// Steps, in parallel, every actor with \p Active[k] != 0 (null = all):
  /// actor k takes \p Actions[k] and fills \p Rewards[k] and
  /// \p Terminals[k] (1 = episode ended at the new state). Inactive actors'
  /// reward/terminal slots are left untouched.
  void stepWhere(const uint8_t *Active, const int *Actions, float *Rewards,
                 uint8_t *Terminals);

private:
  std::vector<std::unique_ptr<GameEnv>> Envs;
  std::vector<Rng> Streams;
};

} // namespace apps
} // namespace au

#endif // AU_APPS_COMMON_VECTORENV_H
