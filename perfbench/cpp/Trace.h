//===- perfbench/cpp/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Spans around every call the benchmark makes into a layer of the
// Autonomizer runtime. A span carries its name, start, end, the span that
// caused it and the loop iteration it belongs to. Spans stay in memory until
// the run ends; nothing inside the runtime is instrumented.
//
// Spans live in streams. Stream 0 belongs to the driving thread; stream
// 1 + k belongs to lane k of a lockstep fleet. A lane's body runs on exactly
// one thread per parallelFor, and parallelFor joins before returning, so
// every stream has a single writer at a time and needs no lock.
//
// When no Tracer is active, a Span costs one load and one branch.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace pb {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every span name the benchmark records, grouped by the layer (module) the
/// call enters.
enum class SpanName : uint16_t {
  LoopSetup,       ///< One whole set-up (top level).
  LoopIter,        ///< One timed loop iteration (top level).
  SessionExtract,  ///< core/Session au_extract.
  SessionSerialize,
  SessionNn,       ///< core/Session au_NN (either form).
  SessionWriteBack,
  SessionCheckpoint,
  SessionRestore,
  EngineNnRl,      ///< core/Engine::nnRlSessions.
  EngineNnBatch,   ///< core/Engine::nnBatchSessions.
  EnginePublish,   ///< core/Engine::publishModel.
  EngineTrainSl,   ///< One supervised epoch (trainSupervised / train).
  PoolParallelFor, ///< support/ThreadPool::parallelFor, whole call.
  PoolChunk,       ///< One parallelFor chunk body, in a lane stream.
  AppsEnvStep,     ///< apps GameEnv::step.
  AppsEnvFeatures, ///< apps GameEnv::features.
  AppsEnvReset,    ///< apps GameEnv::reset.
  AppsScene,       ///< apps makeCannyScene.
  Count
};

class Tracer {
public:
  static constexpr uint32_t NoParent = UINT32_MAX;

  struct Record {
    SpanName Name = SpanName::Count;
    uint16_t ParentStream = 0;
    uint32_t ParentIdx = NoParent;
    uint32_t Iter = 0;
    uint32_t Arg = 0; ///< Floats extracted, rows batched, ...
    int64_t Start = 0;
    int64_t End = 0;
  };

  /// Append-only span storage in fixed chunks: growing never moves or
  /// copies recorded spans, so no record costs more than another.
  class Log {
  public:
    size_t size() const { return Size; }
    Record &operator[](size_t I) { return Chunks[I >> Bits][I & Mask]; }
    const Record &operator[](size_t I) const {
      return Chunks[I >> Bits][I & Mask];
    }
    Record &push(const Record &R) {
      if ((Size & Mask) == 0)
        Chunks.push_back(std::make_unique<Record[]>(Mask + 1));
      Record &Slot = (*this)[Size++];
      Slot = R;
      return Slot;
    }

  private:
    static constexpr size_t Bits = 12, Mask = (size_t(1) << Bits) - 1;
    std::vector<std::unique_ptr<Record[]>> Chunks;
    size_t Size = 0;
  };

  /// One writer's spans; cache-line aligned so lanes on different threads
  /// never share a line.
  struct alignas(64) Stream {
    Log Spans;
    std::vector<uint32_t> Open;
    /// Parent for spans opened with nothing open in this stream (a lane's
    /// chunk span points at the parallelFor span of stream 0).
    uint16_t ExtStream = 0;
    uint32_t ExtParent = NoParent;
    uint32_t Iter = 0;
  };

  explicit Tracer(int NumStreams) : Streams(static_cast<size_t>(NumStreams)) {}

  /// The tracer spans record into; null when tracing is off.
  static Tracer *active() { return Active; }
  static void setActive(Tracer *T) { Active = T; }

  uint32_t begin(int S, SpanName N, uint32_t Arg) {
    Stream &St = Streams[static_cast<size_t>(S)];
    Record R;
    R.Name = N;
    R.Iter = St.Iter;
    R.Arg = Arg;
    if (St.Open.empty()) {
      R.ParentStream = St.ExtStream;
      R.ParentIdx = St.ExtParent;
    } else {
      R.ParentStream = static_cast<uint16_t>(S);
      R.ParentIdx = St.Open.back();
    }
    uint32_t Idx = static_cast<uint32_t>(St.Spans.size());
    Record &Slot = St.Spans.push(R);
    St.Open.push_back(Idx);
    Slot.Start = nowNs();
    return Idx;
  }

  void end(int S, uint32_t Idx) {
    int64_t T = nowNs();
    Stream &St = Streams[static_cast<size_t>(S)];
    St.Spans[Idx].End = T;
    St.Open.pop_back();
  }

  /// Sets the loop iteration new spans of stream 0 belong to.
  void setIter(uint32_t Iter) { Streams[0].Iter = Iter; }

  /// Before a parallelFor: spans lanes 1..N open with nothing of their own
  /// open become children of stream-0 span \p ParentIdx.
  void forkLanes(uint32_t ParentIdx) {
    for (size_t S = 1; S < Streams.size(); ++S) {
      Streams[S].ExtStream = 0;
      Streams[S].ExtParent = ParentIdx;
      Streams[S].Iter = Streams[0].Iter;
    }
  }

  const std::vector<Stream> &streams() const { return Streams; }

private:
  static inline Tracer *Active = nullptr;
  std::vector<Stream> Streams;
};

/// RAII span in stream \p S; records nothing when tracing is off.
class Span {
public:
  explicit Span(SpanName N, int S = 0, uint32_t Arg = 0)
      : T(Tracer::active()), Stream(S) {
    if (T)
      Idx = T->begin(S, N, Arg);
  }
  ~Span() {
    if (T)
      T->end(Stream, Idx);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Index of this span in its stream (Tracer::NoParent when off).
  uint32_t index() const { return Idx; }

private:
  Tracer *T;
  int Stream;
  uint32_t Idx = Tracer::NoParent;
};

/// Per-name aggregates over every recorded span.
struct SpanStats {
  long Calls = 0;
  double SelfS = 0.0;            ///< Summed self time, over all streams.
  std::vector<double> DurUs;     ///< Inclusive durations.
  double ArgSum = 0.0;
};

/// What the trace says about one run.
struct TraceSummary {
  std::vector<SpanStats> ByName; ///< Indexed by SpanName.
  long Spans = 0;
  /// Timed-loop iteration spans (Iter >= 1) summed, in seconds.
  double IterSpanS = 0.0;
  /// Time inside the calls that run NN work (au_NN, the Engine batchers,
  /// supervised epochs) during the timed loop, in seconds.
  double NnS = 0.0;
  /// parallelFor time minus its longest chunk body, one entry per call.
  std::vector<double> DispatchUs;
  /// Spans with negative self time or sticking out of their parent; a
  /// correct nesting has none, and then every iteration's self times add
  /// up to its span exactly.
  long NestingErrors = 0;
};

TraceSummary summarize(const Tracer &T);

} // namespace pb

#endif // PERFBENCH_TRACE_H
