//===- nn/Workspace.cpp - Per-thread tensor arena ------------------------===//

#include "nn/Workspace.h"

#include <cassert>

using namespace au;
using namespace au::nn;

namespace {

/// One parked allocation: the float buffer plus the (tiny) shape vector, so
/// a recycled acquire() reuses both heap blocks.
struct Parked {
  FloatBuffer Data;
  std::vector<int> Dims;
};

/// Bounded freelist: workloads cycle through a handful of distinct
/// activation shapes, so a small pool captures the steady state; anything
/// beyond the cap is genuinely transient and may be freed.
constexpr size_t MaxParked = 32;

std::vector<Parked> &freelist() {
  static thread_local std::vector<Parked> List;
  return List;
}

/// A recycled tensor of shape [Lead, Shape...], or of \p Shape alone when
/// \p Lead is 0.
template <typename ShapeT>
Tensor acquireImpl(int Lead, const ShapeT &Shape) {
  size_t N = Lead ? static_cast<size_t>(Lead) : 1;
  for (int D : Shape) {
    assert(D > 0 && "tensor dimensions must be positive");
    N *= static_cast<size_t>(D);
  }

  auto &List = freelist();
  // First fit with enough float capacity; otherwise steal the last entry so
  // its shape vector (and whatever capacity it has) is still recycled.
  size_t Pick = List.size();
  for (size_t I = 0; I != List.size(); ++I)
    if (List[I].Data.capacity() >= N) {
      Pick = I;
      break;
    }
  Parked Slot;
  if (!List.empty()) {
    if (Pick == List.size())
      Pick = List.size() - 1;
    Slot = std::move(List[Pick]);
    List[Pick] = std::move(List.back());
    List.pop_back();
  }
  // resize within capacity neither reallocates nor writes: FloatBuffer
  // leaves grown elements uninitialized, so the caller gets the buffer's
  // old contents (or indeterminate floats past them).
  Slot.Data.resize(N);
  Slot.Dims.clear();
  if (Lead)
    Slot.Dims.push_back(Lead);
  Slot.Dims.insert(Slot.Dims.end(), Shape.begin(), Shape.end());
  return Tensor::adopt(std::move(Slot.Data), std::move(Slot.Dims));
}

} // namespace

Tensor Workspace::acquire(const std::vector<int> &Shape) {
  return acquireImpl(0, Shape);
}

Tensor Workspace::acquire(std::initializer_list<int> Shape) {
  return acquireImpl(0, Shape);
}

Tensor Workspace::acquire(int Batch, const std::vector<int> &SampleShape) {
  assert(Batch > 0 && "tensor dimensions must be positive");
  return acquireImpl(Batch, SampleShape);
}

void Workspace::release(Tensor &T) {
  auto &List = freelist();
  if (T.Data.capacity() == 0 && T.Dims.capacity() == 0)
    return; // Nothing worth parking (moved-from or default tensor).
  if (List.size() >= MaxParked) {
    T.Data = FloatBuffer();
    T.Dims = std::vector<int>();
    return;
  }
  Parked Slot;
  Slot.Data = std::move(T.Data);
  Slot.Dims = std::move(T.Dims);
  Slot.Data.clear();
  Slot.Dims.clear();
  List.push_back(std::move(Slot));
  T.Data.clear();
  T.Dims.clear();
}

size_t Workspace::freeCount() { return freelist().size(); }

void Workspace::clear() { freelist().clear(); }
