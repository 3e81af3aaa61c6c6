//===- core/Checkpoint.h - Program-state checkpoint/restore ----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint/restore of the program store sigma and the database store pi
/// (Fig. 8, Rules CHECKPOINT and RESTORE). The paper uses KVM to snapshot
/// the whole process and then overwrites the model state from persistent
/// storage so the model keeps learning across rollbacks; here programs
/// register their state explicitly — raw memory regions and/or
/// Checkpointable objects — and the manager snapshots those together with
/// pi. Model state is never registered, which realizes the same
/// "checkpoint sigma and pi but not theta" contract directly.
///
/// Snapshot cost is O(Δ), not O(pi)+O(sigma) (DESIGN.md §7): pi slots carry
/// generation stamps, so checkpoint() copies only slots mutated since the
/// last snapshot and restore() touches only slots mutated since it; regions
/// are memcmp'd against the held copy and re-copied only on change; object
/// blobs reuse their buffers. Behavior is identical to the full snapshot —
/// setDirtyTracking(false) forces the full path, kept for measurement.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_CHECKPOINT_H
#define AU_CORE_CHECKPOINT_H

#include "core/DatabaseStore.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace au {

/// Objects with non-POD state implement this to participate in
/// checkpointing (e.g. a game world with dynamic entity vectors).
class Checkpointable {
public:
  virtual ~Checkpointable();

  /// Serializes the full object state into \p Out.
  virtual void saveState(std::vector<uint8_t> &Out) const = 0;

  /// Restores state previously produced by saveState.
  virtual void loadState(const std::vector<uint8_t> &In) = 0;
};

/// Snapshots registered program state plus a database store.
class CheckpointManager {
public:
  /// Registers a raw memory region (POD program variables).
  void registerRegion(void *Ptr, size_t Bytes);

  /// Registers a structured object.
  void registerObject(Checkpointable *Obj);

  /// Takes the snapshot of all registered state and \p Db (Rule
  /// CHECKPOINT's mkSnapshot over <sigma, pi>). With dirty tracking on
  /// (the default) only state mutated since the previous snapshot is
  /// re-copied; \p Db is non-const because lazily serialized entries are
  /// materialized into the snapshot.
  void checkpoint(DatabaseStore &Db);

  /// Restores the last snapshot into the registered state and \p Db (Rule
  /// RESTORE's rtSnapshot). The snapshot stays valid, so ending states can
  /// roll back repeatedly to the same checkpoint, as Mario training does.
  /// Requires a prior checkpoint().
  void restore(DatabaseStore &Db);

  /// Snapshot footprint in bytes (region bytes + object blobs + pi values).
  size_t snapshotBytes() const;

  /// Toggles O(Δ) dirty tracking (on by default). Off forces every
  /// checkpoint/restore to copy all registered state and every pi slot —
  /// observable behavior is identical; kept so the overhead benchmarks can
  /// measure the delta path against the full path.
  void setDirtyTracking(bool On) { DirtyTracking = On; }

  /// Slots/regions actually copied by the most recent checkpoint()
  /// (diagnostics for the overhead benchmarks).
  size_t lastCheckpointCopies() const { return LastCopies; }

private:
  struct Region {
    void *Ptr;
    size_t Bytes;
  };
  /// Snapshot of one pi slot: its values, mapped-ness, and the slot
  /// generation the copy corresponds to.
  struct SlotSnap {
    std::vector<float> Data;
    uint64_t Gen = 0;
    bool Mapped = false;
  };

  std::vector<Region> Regions;
  std::vector<Checkpointable *> Objects;

  bool HasSnapshot = false;
  bool DirtyTracking = true;
  size_t LastCopies = 0;
  std::vector<std::vector<uint8_t>> RegionData;
  std::vector<std::vector<uint8_t>> ObjectData;
  std::vector<SlotSnap> DbSnap; ///< Indexed by NameId.
  size_t SnapNumSlots = 0;      ///< Slot count when the snapshot was taken.
};

} // namespace au

#endif // AU_CORE_CHECKPOINT_H
