//===- perfbench/cpp/Trace.cpp - Trace summary ----------------------------===//

#include "Trace.h"

#include <algorithm>
#include <unordered_map>

using namespace pb;

TraceSummary pb::summarize(const Tracer &T) {
  TraceSummary Sum;
  Sum.ByName.resize(static_cast<size_t>(SpanName::Count));
  const auto &Streams = T.streams();

  // Self time: a span's duration minus its same-stream children. A lane's
  // chunk spans run beside their stream-0 parent, not inside its thread, so
  // they are not subtracted; they give the parallelFor's longest chunk.
  std::unordered_map<uint32_t, int64_t> LongestChunk; // parallelFor idx -> ns
  for (size_t S = 0; S != Streams.size(); ++S) {
    const auto &Spans = Streams[S].Spans;
    std::vector<int64_t> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = Spans[I].End - Spans[I].Start;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Tracer::Record &R = Spans[I];
      if (R.ParentIdx == Tracer::NoParent)
        continue;
      int64_t Dur = R.End - R.Start;
      if (R.ParentStream == S) {
        const Tracer::Record &P = Spans[R.ParentIdx];
        Self[R.ParentIdx] -= Dur;
        if (R.Start < P.Start || R.End > P.End)
          ++Sum.NestingErrors;
      } else if (R.Name == SpanName::PoolChunk) {
        int64_t &Longest = LongestChunk[R.ParentIdx];
        Longest = std::max(Longest, Dur);
      }
    }
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Tracer::Record &R = Spans[I];
      if (Self[I] < 0)
        ++Sum.NestingErrors;
      SpanStats &St = Sum.ByName[static_cast<size_t>(R.Name)];
      double DurNs = static_cast<double>(R.End - R.Start);
      ++St.Calls;
      St.SelfS += static_cast<double>(Self[I]) * 1e-9;
      St.DurUs.push_back(DurNs * 1e-3);
      St.ArgSum += R.Arg;
      if (S == 0 && R.Iter >= 1) {
        if (R.Name == SpanName::LoopIter)
          Sum.IterSpanS += DurNs * 1e-9;
        if (R.Name == SpanName::SessionNn || R.Name == SpanName::EngineNnRl ||
            R.Name == SpanName::EngineNnBatch ||
            R.Name == SpanName::EngineTrainSl)
          Sum.NnS += DurNs * 1e-9;
      }
    }
    Sum.Spans += static_cast<long>(Spans.size());
  }

  const auto &Main = Streams[0].Spans;
  for (size_t I = 0; I != Main.size(); ++I) {
    if (Main[I].Name != SpanName::PoolParallelFor)
      continue;
    auto It = LongestChunk.find(static_cast<uint32_t>(I));
    if (It == LongestChunk.end())
      continue;
    Sum.DispatchUs.push_back(
        static_cast<double>(Main[I].End - Main[I].Start - It->second) * 1e-3);
  }
  return Sum;
}
