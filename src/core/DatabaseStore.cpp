//===- core/DatabaseStore.cpp - The database store (pi) -------------------===//

#include "core/DatabaseStore.h"

#include <cassert>
#include <cstring>

using namespace au;

static const std::vector<float> EmptyList;

DatabaseStore::InternAuthority::~InternAuthority() = default;

size_t SerializedView::numSpans() const {
  const DatabaseStore::Slot &S = Store->slot(Id);
  if (!S.Mapped)
    return 0;
  return S.Lazy ? S.Srcs.size() : !S.Data.empty();
}

const float *SerializedView::spanData(size_t I) const {
  assert(I < numSpans() && "span index out of range");
  const DatabaseStore::Slot &S = Store->slot(Id);
  if (!S.Lazy)
    return S.Data.data();
  const DatabaseStore::Slot::Src &Src = S.Srcs[I];
  const DatabaseStore::Slot &From = Store->slot(Src.Id);
  assert(From.WriteGen == Src.WriteGen &&
         "serialize source mutated before the combined entry was consumed");
  return From.Data.data();
}

void SerializedView::copyTo(float *Dst) const {
  const DatabaseStore::Slot &S = Store->slot(Id);
  if (!S.Mapped)
    return;
  if (!S.Lazy) {
    if (!S.Data.empty())
      std::memcpy(Dst, S.Data.data(), S.Data.size() * sizeof(float));
    return;
  }
  for (const DatabaseStore::Slot::Src &Src : S.Srcs) {
    const DatabaseStore::Slot &From = Store->slot(Src.Id);
    assert(From.WriteGen == Src.WriteGen &&
           "serialize source mutated before the combined entry was consumed");
    std::memcpy(Dst, From.Data.data(), Src.Len * sizeof(float));
    Dst += Src.Len;
  }
}

//===----------------------------------------------------------------------===//
// Interning and slot access
//===----------------------------------------------------------------------===//

NameId DatabaseStore::intern(std::string_view Name) {
  NameId Id = Names.intern(Name);
  if (Id >= Slots.size())
    Slots.resize(Names.size());
  return Id;
}

//===----------------------------------------------------------------------===//
// Handle-keyed primitives (the append/reset pair is inline in the header)
//===----------------------------------------------------------------------===//

void DatabaseStore::appendSlow(Slot &S, const float *Values, size_t N) {
  if (S.Lazy)
    materialize(S); // Appending to a serialized entry: concretize first.
  if (!S.Mapped) {
    S.Data.clear(); // Fresh list over the retained buffer.
    S.Mapped = true;
    ++S.WriteGen;
    if (S.Data.capacity() < N)
      S.Data.reserve(N);
  } else if (S.Data.size() + N > S.Data.capacity()) {
    ++S.WriteGen; // Growth reallocates: span pointers die.
  }
  S.Data.insert(S.Data.end(), Values, Values + N);
  touch(S);
  Appended += N;
}

const std::vector<float> &DatabaseStore::get(NameId Id) const {
  const Slot &S = slot(Id);
  if (!S.Mapped)
    return EmptyList;
  if (S.Lazy)
    materialize(S);
  return S.Data;
}

void DatabaseStore::materialize(const Slot &S) const {
  assert(S.Lazy && "materializing a concrete slot");
  // Gather into a scratch list first: source buffers must not alias the
  // destination mid-copy (serialize() already rejects self-reference, this
  // keeps the invariant local).
  std::vector<float> Gathered;
  Gathered.reserve(S.LazySize);
  for (const Slot::Src &Src : S.Srcs) {
    const Slot &From = slot(Src.Id);
    assert(From.WriteGen == Src.WriteGen &&
           "serialize source mutated before the combined entry was consumed");
    Gathered.insert(Gathered.end(), From.Data.data(),
                    From.Data.data() + Src.Len);
  }
  S.Data = std::move(Gathered);
  S.Srcs.clear();
  S.Lazy = false;
  ++S.WriteGen;
}

void DatabaseStore::set(NameId Id, const float *Values, size_t N) {
  Slot &S = slot(Id);
  S.Data.assign(Values, Values + N);
  S.Srcs.clear();
  S.Lazy = false;
  S.Mapped = true;
  ++S.WriteGen;
  touch(S);
}

void DatabaseStore::set(NameId Id, std::vector<float> Values) {
  Slot &S = slot(Id);
  S.Data = std::move(Values);
  S.Srcs.clear();
  S.Lazy = false;
  S.Mapped = true;
  ++S.WriteGen;
  touch(S);
}

NameId DatabaseStore::combinedIdFor(const std::vector<NameId> &Ids) {
  auto It = CombinedIds.find(Ids);
  NameId Combined;
  if (It != CombinedIds.end()) {
    Combined = It->second;
  } else {
    std::string Name;
    for (NameId Id : Ids)
      Name += Names.name(Id);
    // With an authority installed (Session-owned stores), the combined
    // name interns through the engine's master table — resolveName replays
    // it into this store before returning, so the id indexes Slots here
    // exactly as a local intern would.
    Combined = Authority ? Authority->resolveName(Name) : intern(Name);
    assert(Combined < Slots.size() &&
           "intern authority returned an id unknown to this store");
    CombinedIds.emplace(Ids, Combined);
  }
  LastSerializeIds = Ids;
  LastSerializeCombined = Combined;
  return Combined;
}

void DatabaseStore::append(NameId Id, std::vector<float> &&Values) {
  Slot &S = slot(Id);
  size_t N = Values.size();
  if (!S.Mapped) {
    // Adopt the buffer wholesale: the common model-output path hands over
    // a freshly built vector, so this kills the per-step copy.
    S.Data = std::move(Values);
    S.Srcs.clear();
    S.Lazy = false;
    S.Mapped = true;
    ++S.WriteGen;
    touch(S);
    Appended += N;
    return;
  }
  append(Id, Values.data(), N);
}

//===----------------------------------------------------------------------===//
// String-keyed shims
//===----------------------------------------------------------------------===//

void DatabaseStore::append(const std::string &Name,
                           const std::vector<float> &Values) {
  append(intern(Name), Values.data(), Values.size());
}

void DatabaseStore::append(const std::string &Name,
                           std::vector<float> &&Values) {
  append(intern(Name), std::move(Values));
}

void DatabaseStore::append(const std::string &Name, float Value) {
  append(intern(Name), &Value, 1);
}

const std::vector<float> &DatabaseStore::get(const std::string &Name) const {
  NameId Id = Names.find(Name);
  return Id == InvalidNameId ? EmptyList : get(Id);
}

void DatabaseStore::set(const std::string &Name, std::vector<float> Values) {
  set(intern(Name), std::move(Values));
}

void DatabaseStore::reset(const std::string &Name) {
  NameId Id = Names.find(Name);
  if (Id != InvalidNameId && Id < Slots.size())
    reset(Id);
}

bool DatabaseStore::contains(const std::string &Name) const {
  NameId Id = Names.find(Name);
  return Id != InvalidNameId && Id < Slots.size() && contains(Id);
}

std::string DatabaseStore::serialize(const std::vector<std::string> &Names_) {
  assert(!Names_.empty() && "serialize of no lists");
  return nameOf(serialize(internRange(Names_)));
}

std::string DatabaseStore::serialize(std::initializer_list<const char *> Ns) {
  assert(Ns.size() > 0 && "serialize of no lists");
  return nameOf(serialize(internRange(Ns)));
}

//===----------------------------------------------------------------------===//
// Accounting and checkpoint support
//===----------------------------------------------------------------------===//

size_t DatabaseStore::numEntries() const {
  size_t N = 0;
  for (const Slot &S : Slots)
    N += S.Mapped;
  return N;
}

size_t DatabaseStore::totalValues() const {
  size_t N = 0;
  for (const Slot &S : Slots)
    if (S.Mapped)
      N += S.Lazy ? S.LazySize : S.Data.size();
  return N;
}

void DatabaseStore::clear() {
  for (Slot &S : Slots) {
    S.Data = {};
    S.Srcs = {};
    S.LazySize = 0;
    S.Mapped = false;
    S.Lazy = false;
    ++S.WriteGen; // The retained bytes are gone: invalidate spans.
    touch(S);     // And any checkpoint snapshot must re-copy the slot.
  }
}

void DatabaseStore::snapshotSlot(NameId Id, std::vector<float> &Data,
                                 bool &Mapped) const {
  const Slot &S = slot(Id);
  Mapped = S.Mapped;
  if (!S.Mapped) {
    Data.clear();
    return;
  }
  if (S.Lazy)
    materialize(S);
  Data.assign(S.Data.begin(), S.Data.end());
}

void DatabaseStore::restoreSlot(NameId Id, const std::vector<float> &Data,
                                bool Mapped, uint64_t Gen) {
  Slot &S = slot(Id);
  S.Data.assign(Data.begin(), Data.end());
  S.Srcs.clear();
  S.LazySize = 0;
  S.Lazy = false;
  S.Mapped = Mapped;
  ++S.WriteGen;
  S.Gen = Gen;
}
