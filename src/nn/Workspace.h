//===- nn/Workspace.h - Per-thread tensor arena ----------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread recycling arena for intermediate tensors. acquire() hands out
/// a tensor whose buffer comes from a thread-local freelist; its contents
/// are UNSPECIFIED (whatever the buffer's last user left, nothing is
/// zeroed), so callers that accumulate must fill(0) first. release()
/// returns the buffer to the freelist. Buffer capacities converge on the
/// high-water mark of the workload, so steady-state forward / backward /
/// TS-mode inference perform zero heap allocations.
///
/// Ownership (DESIGN.md §9): a layer's forward/backward returns an acquired
/// tensor, and so does Network::forward/backward. Without a context the
/// Network releases each intermediate as soon as the next layer has read
/// it; with a ForwardCtx it keeps the ones a layer's backward reads (Dense
/// and ReLU inputs) and Conv2D's im2col columns until Network::backward,
/// which releases them. The caller releases the final output and gradient.
/// Each thread has its own freelist, so concurrent readers of one network
/// never share a buffer. Releasing a tensor you did not acquire is safe —
/// the buffer simply joins the freelist — but releases must happen on the
/// acquiring thread for the freelist to stay warm.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_WORKSPACE_H
#define AU_NN_WORKSPACE_H

#include "nn/Tensor.h"

#include <cstddef>
#include <vector>

namespace au {
namespace nn {

/// The per-thread tensor arena. All members are static; state lives in
/// thread_local storage inside Workspace.cpp.
class Workspace {
public:
  /// Returns a tensor of \p Shape backed by a recycled buffer when one with
  /// sufficient capacity exists. Contents are UNSPECIFIED.
  static Tensor acquire(const std::vector<int> &Shape);

  /// Brace-list form; avoids materializing a heap-backed shape vector at the
  /// call site (the initializer list lives on the stack).
  static Tensor acquire(std::initializer_list<int> Shape);

  /// A [Batch, SampleShape...] tensor; same contract as acquire(Shape).
  static Tensor acquire(int Batch, const std::vector<int> &SampleShape);

  /// Returns \p T's buffer to this thread's freelist; \p T becomes empty.
  static void release(Tensor &T);

  /// Number of buffers currently parked on this thread's freelist.
  static size_t freeCount();

  /// Drops every parked buffer on this thread (tests; memory pressure).
  static void clear();
};

} // namespace nn
} // namespace au

#endif // AU_NN_WORKSPACE_H
