//===- nn/ReplayBuffer.h - Sharded experience-replay ring ------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experience-replay store behind QLearner (DESIGN.md §8): a
/// preallocated ring buffer split into one shard per actor, with one
/// writer, push(). Two properties matter:
///
///  * Writes are lock-free across actors: actor k only ever touches shard
///    k, so K actors can record transitions concurrently with no
///    synchronization, and no allocation once the ring has wrapped (each
///    ring slot keeps its state buffers across overwrites).
///
///  * Reads are deterministic: the merged view presented to the sampler is
///    always shard 0's transitions oldest-first, then shard 1's, and so on —
///    a pure function of what was inserted, never of which thread inserted
///    it first. Training draws identical minibatches at any thread count.
///
/// With one shard (one actor, the paper's serial loop) this is a plain
/// FIFO: index i is the i-th oldest transition, and capacity overflow
/// evicts the oldest.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_REPLAYBUFFER_H
#define AU_NN_REPLAYBUFFER_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace au {
namespace nn {

/// One replay transition.
struct Transition {
  std::vector<float> State;
  int Action;
  float Reward;
  std::vector<float> NextState;
  bool Terminal;
};

/// A fixed-capacity ring of transitions sharded by actor.
class ShardedReplay {
public:
  /// (Re)configures the buffer: \p NumShards actor shards sharing
  /// \p Capacity total slots (each shard gets the same fixed share, at
  /// least one slot). Drops any stored transitions; slot buffers of an
  /// existing configuration are retained where shard count is unchanged.
  void configure(int NumShards, int Capacity) {
    assert(NumShards > 0 && Capacity > 0 && "empty replay configuration");
    ShardCap = static_cast<size_t>((Capacity + NumShards - 1) / NumShards);
    if (Shards.size() != static_cast<size_t>(NumShards))
      Shards.assign(static_cast<size_t>(NumShards), {});
    for (Shard &S : Shards) {
      S.Ring.resize(ShardCap);
      S.Head = 0;
      S.Count = 0;
    }
  }

  int numShards() const { return static_cast<int>(Shards.size()); }
  size_t shardCapacity() const { return ShardCap; }

  /// Total transitions currently stored across all shards.
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : Shards)
      N += S.Count;
    return N;
  }

  size_t shardSize(int S) const { return shard(S).Count; }

  /// Records one transition into \p ShardIdx, evicting that shard's oldest
  /// transition when the shard is full. The state buffers are copied into
  /// the slot's retained vectors, so once the ring has wrapped a push
  /// allocates nothing. Distinct shards may be pushed concurrently; one
  /// shard must not.
  void push(int ShardIdx, const float *State, size_t StateLen, int Action,
            float Reward, const float *NextState, size_t NextLen,
            bool Terminal) {
    Shard &S = shard(ShardIdx);
    Transition &Slot = S.Ring[S.slotForPush(ShardCap)];
    Slot.State.assign(State, State + StateLen);
    Slot.Action = Action;
    Slot.Reward = Reward;
    Slot.NextState.assign(NextState, NextState + NextLen);
    Slot.Terminal = Terminal;
  }

  /// The \p I-th transition of the deterministic merged view: shard-major,
  /// oldest-first within each shard.
  const Transition &at(size_t I) const {
    for (const Shard &S : Shards) {
      if (I < S.Count)
        return S.Ring[(S.Head + I) % ShardCap];
      I -= S.Count;
    }
    assert(false && "replay index out of range");
    return Shards.front().Ring.front();
  }

private:
  struct Shard {
    std::vector<Transition> Ring;
    size_t Head = 0;  ///< Index of the oldest stored transition.
    size_t Count = 0; ///< Stored transitions (<= capacity).

    /// Advances the ring bookkeeping for one push and returns the slot to
    /// write: the first free slot, or the oldest one (evicting it) when
    /// full.
    size_t slotForPush(size_t Cap) {
      size_t Slot = (Head + Count) % Cap;
      if (Count < Cap) {
        ++Count;
      } else {
        Head = (Head + 1) % Cap; // Full: overwrite (evict) the oldest.
      }
      return Slot;
    }
  };

  Shard &shard(int I) {
    assert(I >= 0 && I < numShards() && "shard index out of range");
    return Shards[static_cast<size_t>(I)];
  }
  const Shard &shard(int I) const {
    assert(I >= 0 && I < numShards() && "shard index out of range");
    return Shards[static_cast<size_t>(I)];
  }

  std::vector<Shard> Shards;
  size_t ShardCap = 0;
};

} // namespace nn
} // namespace au

#endif // AU_NN_REPLAYBUFFER_H
