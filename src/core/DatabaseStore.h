//===- core/DatabaseStore.h - The database store (pi) ----------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The database store pi of the operational semantics (Fig. 8): a mapping
/// from names to lists of values. au_extract appends feature-variable
/// values here; model outputs are put here before au_write_back copies them
/// into program variables. The store is isolated from program memory — all
/// transfer is explicit through the primitives.
///
/// Hot-path layout (DESIGN.md §7): names are interned once into dense
/// NameIds by an embedded NameTable, and the store is a flat vector of
/// slots indexed by NameId. Each slot keeps its float buffer across reset()
/// so steady-state extract/append does zero allocations, and carries two
/// counters: Gen, a store-wide monotone stamp bumped on every *logical*
/// mutation (append/set/reset/serialize target) that the checkpoint
/// manager's dirty tracking compares, and WriteGen, bumped only when the
/// slot's *bytes* change, which validates the zero-copy serialize spans.
///
/// serialize() is lazy: the combined entry records spans over the source
/// slots instead of copying them; the concatenated vector materializes only
/// when someone reads the combined entry through get(), while nn() consumes
/// the spans directly via view(). The string-keyed API is a thin shim that
/// interns and forwards, so existing callers compile and behave unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_DATABASESTORE_H
#define AU_CORE_DATABASESTORE_H

#include "core/NameTable.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace au {

class DatabaseStore;

/// Zero-copy view of one database-store entry: its ordered span list over
/// the backing slot buffers, read in place from the entry's own slot, so
/// taking a view allocates nothing. Valid until the next mutation of the
/// entry or of any source slot (in the Fig. 8 loop, a view produced by
/// serialize is consumed by the immediately following au_NN, which holds).
/// copyTo() is the one gather the consumer pays.
class SerializedView {
public:
  size_t size() const { return Total; }
  size_t numSpans() const;
  const float *spanData(size_t I) const;

  /// Gathers the spans into \p Dst (which must hold size() floats).
  void copyTo(float *Dst) const;

private:
  friend class DatabaseStore;
  SerializedView(const DatabaseStore &S, NameId I, size_t N)
      : Store(&S), Id(I), Total(N) {}

  const DatabaseStore *Store;
  NameId Id;
  size_t Total;
};

/// pi ::= Name -> list of Value. Copyable so tests and the executable
/// semantics can snapshot it wholesale (the checkpoint manager itself uses
/// per-slot dirty tracking instead, see Checkpoint.h).
class DatabaseStore {
public:
  /// Delegates interning of names the store creates *itself* (today only
  /// the combined names of serialize()) to an external owner. A Session
  /// installs itself here so combined names intern through the engine's
  /// master table and the store stays a positional mirror of it
  /// (DESIGN.md §10); a standalone store interns locally as before. The
  /// authority must return an id that is valid in this store by the time
  /// it returns (the session's name replay guarantees that).
  class InternAuthority {
  public:
    virtual ~InternAuthority();
    virtual NameId resolveName(std::string_view Name) = 0;
  };

  //===--------------------------------------------------------------------===//
  // Name interning
  //===--------------------------------------------------------------------===//

  /// Interns \p Name (idempotent) and returns its dense handle. The handle
  /// APIs below are the hot path; intern once, outside the loop. Note:
  /// interning directly into a Session-owned store bypasses the engine's
  /// master table and the session will detect the divergence — go through
  /// Session::intern instead.
  NameId intern(std::string_view Name);

  /// Installs (or clears, with null) the interning authority.
  void setInternAuthority(InternAuthority *A) { Authority = A; }

  const NameTable &names() const { return Names; }

  /// The string a handle was interned from.
  const std::string &nameOf(NameId Id) const { return Names.name(Id); }

  //===--------------------------------------------------------------------===//
  // Handle-keyed primitives (hot path)
  //===--------------------------------------------------------------------===//

  /// Appends \p N values to the list under \p Id (Rule EXTRACT's concat).
  void append(NameId Id, const float *Values, size_t N);
  void append(NameId Id, float Value);
  /// Rvalue overload: adopts \p Values wholesale when the slot is bottom
  /// (the common model-output path hands over a freshly built vector, so
  /// this kills the copy); appends otherwise.
  void append(NameId Id, std::vector<float> &&Values);

  /// The list under \p Id; empty when unmapped (bottom). Materializes a
  /// lazily serialized entry on first read.
  const std::vector<float> &get(NameId Id) const;

  /// Span view of the entry without materializing it.
  SerializedView view(NameId Id) const {
    const Slot &S = slot(Id);
    return {*this, Id,
            !S.Mapped ? 0 : S.Lazy ? S.LazySize : S.Data.size()};
  }

  /// Replaces the list under \p Id (copying variant reuses the slot's
  /// buffer; no allocation once capacity is warm).
  void set(NameId Id, const float *Values, size_t N);
  void set(NameId Id, std::vector<float> Values);

  /// Maps \p Id back to bottom (Rule TRAIN/TEST reset the model-input list
  /// after each au_NN). Keeps the slot's buffer: the bytes stay readable
  /// through previously recorded serialize spans until the next append.
  void reset(NameId Id);

  bool contains(NameId Id) const;

  /// Rule SERIALIZE over handles: records the concatenation of the lists
  /// under \p Ids as spans under the combined name (the strcat of the
  /// source names, interned once and cached per id-vector), and returns the
  /// combined handle. No float is copied until the entry is read. With
  /// \p Consume the source entries are mapped back to bottom in the same
  /// walk (the runtime's serialize semantics); their bytes stay readable
  /// through the recorded spans.
  NameId serialize(const std::vector<NameId> &Ids, bool Consume = false);

  //===--------------------------------------------------------------------===//
  // String-keyed primitives (compatibility shims; intern and forward)
  //===--------------------------------------------------------------------===//

  void append(const std::string &Name, const std::vector<float> &Values);
  /// Rvalue overload: adopts \p Values wholesale when the slot is bottom.
  void append(const std::string &Name, std::vector<float> &&Values);
  void append(const std::string &Name, float Value);
  const std::vector<float> &get(const std::string &Name) const;
  void set(const std::string &Name, std::vector<float> Values);
  void reset(const std::string &Name);
  bool contains(const std::string &Name) const;

  /// Rule SERIALIZE: concatenates the lists under \p Names into a single
  /// list stored under the strcat of the names, and returns that combined
  /// name.
  std::string serialize(const std::vector<std::string> &Names);
  /// Disambiguates serialize({"A", "B"}): a braced list of string literals
  /// would otherwise also match the NameId vector via its iterator-pair
  /// constructor.
  std::string serialize(std::initializer_list<const char *> Names);

  //===--------------------------------------------------------------------===//
  // Accounting and checkpoint support
  //===--------------------------------------------------------------------===//

  /// Number of mapped (non-bottom) names.
  size_t numEntries() const;

  /// Total stored floats across all lists.
  size_t totalValues() const;

  /// Cumulative floats ever appended (monotone). This is the Table 2
  /// "Trace Size" accounting. Deliberately survives both reset() and
  /// clear(): it counts what the primitives moved over the execution, not
  /// what the store currently holds (tests rely on this).
  size_t lifetimeAppended() const { return Appended; }

  /// Maps every entry to bottom and drops all per-slot bookkeeping: buffer
  /// capacity is released and generation stamps are re-issued, so cleared
  /// slots are seen as mutated by any outstanding checkpoint snapshot.
  /// Interned names (and their ids) survive; lifetimeAppended() survives
  /// (see above). Used by tests; not a primitive.
  void clear();

  /// Number of slots (== names().size(); includes bottom slots).
  size_t numSlots() const { return Slots.size(); }

  /// The logical-mutation stamp of a slot (checkpoint dirty tracking).
  uint64_t slotGen(NameId Id) const;

  /// Called by the checkpoint manager after recording slot stamps: mutation
  /// stamping is lazy — a slot already stamped after the latest snapshot is
  /// already dirty and skips the counter bump — so the manager must tell
  /// the store where "latest" is.
  void markSnapshot() { SnapStamp = GenCounter; }

  /// Copies the entry under \p Id into \p Data (reusing its capacity) and
  /// reports whether the slot is mapped. Materializes lazy entries.
  void snapshotSlot(NameId Id, std::vector<float> &Data, bool &Mapped) const;

  /// Overwrites the slot from a snapshot taken at generation \p Gen and
  /// winds its stamp back to \p Gen, so an unchanged slot stays clean
  /// across checkpoint/restore cycles.
  void restoreSlot(NameId Id, const std::vector<float> &Data, bool Mapped,
                   uint64_t Gen);

private:
  friend class SerializedView;

  /// One arena slot. Data/Lazy bookkeeping is mutable so that get() can
  /// materialize a lazy concatenation without breaking logical constness
  /// (materialization never changes the entry's value).
  struct Slot {
    /// Backing buffer. Only the slots of a *mapped*, non-lazy entry are
    /// meaningful; after reset() the bytes linger for span readers.
    mutable std::vector<float> Data;
    /// Lazy-concat sources: (source id, length, source WriteGen at record
    /// time). Non-empty only while Lazy.
    struct Src {
      NameId Id;
      uint32_t Len;
      uint64_t WriteGen;
    };
    mutable std::vector<Src> Srcs;
    uint64_t Gen = 0;            ///< Logical-mutation stamp (store-wide).
    mutable uint64_t WriteGen = 0; ///< Byte-mutation stamp (span validity).
    uint32_t LazySize = 0;       ///< Total floats of the lazy concat.
    bool Mapped = false;
    mutable bool Lazy = false;
  };

  Slot &slot(NameId Id);
  const Slot &slot(NameId Id) const;
  void materialize(const Slot &S) const;

  /// Cold half of append(): first touch of a bottom slot, concretizing a
  /// lazy entry, and capacity growth (the WriteGen bumps live here — the
  /// fast path never invalidates recorded spans).
  void appendSlow(Slot &S, const float *Values, size_t N);

  /// Cold half of serialize(): combined-name interning on an id-vector
  /// cache miss (routed through the InternAuthority when one is set).
  NameId combinedIdFor(const std::vector<NameId> &Ids);

  /// Interns a range of string-ish names; shared by the string-keyed
  /// serialize shims.
  template <typename Range> std::vector<NameId> internRange(const Range &R) {
    std::vector<NameId> Ids;
    Ids.reserve(R.size());
    for (const auto &N : R)
      Ids.push_back(intern(N));
    return Ids;
  }

  /// Stamps a logical mutation. Lazy: once a slot is dirty relative to the
  /// latest snapshot (Gen > SnapStamp), further mutations change nothing a
  /// snapshot comparison can see, so the hot loop skips the counter
  /// read-modify-write (which would otherwise serialize every append).
  void touch(Slot &S) {
    if (S.Gen <= SnapStamp)
      S.Gen = ++GenCounter;
  }

  /// Cache: source-id vector -> combined id, so steady-state serialize
  /// neither hashes strings nor concatenates them.
  struct IdVecHash {
    size_t operator()(const std::vector<NameId> &V) const {
      size_t H = 0xcbf29ce484222325ull;
      for (NameId Id : V)
        H = (H ^ Id) * 0x100000001b3ull;
      return H;
    }
  };

  NameTable Names;
  std::vector<Slot> Slots;
  InternAuthority *Authority = nullptr;
  std::unordered_map<std::vector<NameId>, NameId, IdVecHash> CombinedIds;
  /// One-entry MRU over CombinedIds: the annotated loop serializes the same
  /// id-vector every iteration, so a short equality check beats re-hashing.
  std::vector<NameId> LastSerializeIds;
  NameId LastSerializeCombined = InvalidNameId;
  uint64_t GenCounter = 0;
  uint64_t SnapStamp = 0; ///< GenCounter value at the latest snapshot.
  size_t Appended = 0;
  /// serialize()'s swap partner for the combined slot's span list (see the
  /// self-reference restore there); holds a retained buffer between calls.
  std::vector<Slot::Src> SrcsStash;
};

//===----------------------------------------------------------------------===//
// Inline hot path (DESIGN.md §7): the handle-keyed append/reset pair runs
// once per au_extract / au_serialize constituent, so it is defined here to
// inline into the primitive bodies.
//===----------------------------------------------------------------------===//

inline DatabaseStore::Slot &DatabaseStore::slot(NameId Id) {
  assert(Id < Slots.size() && "NameId from a different store");
  return Slots[Id];
}

inline const DatabaseStore::Slot &DatabaseStore::slot(NameId Id) const {
  assert(Id < Slots.size() && "NameId from a different store");
  return Slots[Id];
}

// WriteGen stamps byte mutations a recorded span could observe: a rewrite
// from offset zero (the old bytes die) or a growth past capacity (the old
// buffer dies). Extending a list in place leaves every previously recorded
// prefix span intact, so steady-state appends carry no counter
// read-modify-write chain at all.

inline void DatabaseStore::append(NameId Id, const float *Values, size_t N) {
  Slot &S = slot(Id);
  // Fast path: extending a concrete mapped list inside retained capacity —
  // the steady state of the annotated loop. One fused test guards it, then
  // the body is a single batched copy into the slot arena (the pointer-pair
  // insert at end() compiles to one memcpy; measured identical to a raw
  // memcpy of the run). Everything else — first touch, lazy concretize,
  // growth — is the out-of-line slow path.
  if (S.Mapped && !S.Lazy && S.Data.size() + N <= S.Data.capacity()) {
    S.Data.insert(S.Data.end(), Values, Values + N);
    touch(S);
    Appended += N;
    return;
  }
  appendSlow(S, Values, N);
}

inline void DatabaseStore::append(NameId Id, float Value) {
  // Scalar fast path: push_back instead of the iterator-pair insert (one
  // au_extract per program variable is the common case).
  Slot &S = slot(Id);
  if (S.Mapped && !S.Lazy && S.Data.size() < S.Data.capacity()) {
    S.Data.push_back(Value);
    touch(S);
    ++Appended;
    return;
  }
  appendSlow(S, &Value, 1);
}

inline void DatabaseStore::reset(NameId Id) {
  Slot &S = slot(Id);
  if (!S.Mapped)
    return; // Already bottom; nothing observable changes.
  S.Mapped = false;
  if (S.Lazy) {
    S.Lazy = false;
    S.Srcs.clear();
  }
  // Deliberately no WriteGen bump and no Data.clear(): the bytes stay
  // readable through spans recorded by serialize() until the next append
  // overwrites them (the zero-copy serialize contract, DESIGN.md §7).
  touch(S);
}

inline NameId DatabaseStore::serialize(const std::vector<NameId> &Ids,
                                       bool Consume) {
  assert(!Ids.empty() && "serialize of no lists");
  if (Ids.size() == 1)
    return Ids[0]; // A single list serializes onto its own name.

  // Steady-state loops serialize the same id-vector every iteration: a
  // short equality check beats re-hashing it.
  NameId Combined =
      Ids == LastSerializeIds ? LastSerializeCombined : combinedIdFor(Ids);

  // Record the concatenation as spans, gathered straight into the combined
  // slot's retained span list; flatten sources that are themselves lazy so
  // spans always reference concrete buffers. No float is copied. Aliasing
  // notes: the combined slot's old span list is swapped into SrcsStash
  // first, so a lazy combined slot appearing among its own sources
  // flattens from the stash while the new list is being built; a span over
  // the combined slot's own buffer is fine — view() only reads it, and
  // materialize() gathers every span before replacing the buffer.
  Slot &C = slot(Combined);
  C.Srcs.swap(SrcsStash);
  std::vector<Slot::Src> &Srcs = C.Srcs;
  Srcs.clear();
  uint32_t Total = 0;
  bool AnyLazy = false;
  for (NameId Id : Ids) {
    Slot &S = slot(Id);
    if (!S.Mapped) {
      // Bottom contributes no values (but did name the entry) — unless this
      // is a duplicate of a source consumed earlier in this very walk,
      // whose bytes (and recorded span) are still valid.
      for (size_t J = 0, E = Srcs.size(); J != E; ++J)
        if (Srcs[J].Id == Id) {
          Slot::Src Again = Srcs[J];
          Srcs.push_back(Again);
          Total += Again.Len;
          break;
        }
      continue;
    }
    if (S.Lazy) {
      AnyLazy = true;
      const std::vector<Slot::Src> &From = &S == &C ? SrcsStash : S.Srcs;
      for (const Slot::Src &Sub : From) {
        Srcs.push_back(Sub);
        Total += Sub.Len;
      }
      continue;
    }
    Srcs.push_back({Id, static_cast<uint32_t>(S.Data.size()), S.WriteGen});
    Total += static_cast<uint32_t>(S.Data.size());
    if (Consume && Id != Combined) {
      S.Mapped = false;
      touch(S);
    }
  }
  // Lazy sources are consumed after the walk: a duplicated lazy source
  // must still be mapped when its second occurrence flattens it.
  if (Consume && AnyLazy)
    for (NameId Id : Ids) {
      Slot &S = slot(Id);
      if (Id != Combined && S.Mapped && S.Lazy) {
        S.Mapped = false;
        S.Lazy = false;
        S.Srcs.clear();
        touch(S);
      }
    }
  C.LazySize = Total;
  C.Lazy = true;
  C.Mapped = true;
  touch(C);
  return Combined;
}

inline bool DatabaseStore::contains(NameId Id) const {
  return slot(Id).Mapped;
}

inline uint64_t DatabaseStore::slotGen(NameId Id) const {
  return slot(Id).Gen;
}

} // namespace au

#endif // AU_CORE_DATABASESTORE_H
