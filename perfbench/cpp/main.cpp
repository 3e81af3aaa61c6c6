//===- perfbench/cpp/main.cpp - Benchmark entry point ---------------------===//
//
// Runs one workload and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Before it, one line of run
// metadata and one line of detail (the workload's own names for its
// end-to-end numbers, sample counts, failed share).
//
// --trace 0: runs several seeded instances of the workload untraced, each
// set up several times (set-up time is the median), and reports the
// end-to-end metrics.
// --trace 1: sets up once under the tracer, runs the loop untraced and then
// traced, and reports the per-layer metrics from the traced part.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "nn/Gemm.h"
#include "support/ThreadPool.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace pb;

namespace {

constexpr int Replicas = 8;
constexpr int SetupsPerReplica = 3;
/// Longest traced phase of a --trace 1 run; spans stay in memory.
constexpr double MaxTracedSeconds = 3.0;

struct Metric {
  std::string Name;
  const char *Unit;
  double Value;
};

double ratio(double A, double B) { return B > 0.0 ? A / B : 0.0; }

/// The process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss would not do: Linux carries it across exec, so it reports the
/// launching process's footprint when that was larger.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Kb = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return Kb / 1024.0;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "flappy_loop")
    return makeFlappyLoop(O);
  if (O.Workload == "flappy_fleet")
    return makeFlappyFleet(O);
  if (O.Workload == "serve_tenants")
    return makeServeTenants(O);
  if (O.Workload == "canny_sl")
    return makeCannySl(O);
  return nullptr;
}

/// Untraced run: Replicas instances of the workload, one after another,
/// each on its own seed derived from the run's seed, set up
/// SetupsPerReplica times and then run for an equal share of the time.
/// Training cost depends on the seed (how many values go subnormal, for
/// one), so one instance per run would make runs disagree by seed alone.
std::vector<Metric> endToEnd(const Options &O, LoopStats &L,
                             std::vector<double> &SetupS) {
  // The pool's workers inherit the creating thread's CPU mask, so create
  // them before the driving thread is pinned below.
  au::ThreadPool::global();
  cpu_set_t Orig;
  bool CanPin = pthread_getaffinity_np(pthread_self(), sizeof(Orig), &Orig) == 0;
  std::vector<int> Cpus;
  for (int C = 0; CanPin && C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Orig))
      Cpus.push_back(C);
  for (int Rep = 0; Rep < Replicas; ++Rep) {
    // Each instance's driving thread runs on another CPU: on a shared host
    // CPUs differ in speed, and a run should not hang on which one the
    // scheduler happened to pick.
    if (!Cpus.empty()) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpus[static_cast<size_t>(Rep) % Cpus.size()], &One);
      pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
    }
    Options RO = O;
    if (Rep > 0) {
      RO.Seed = mixSeed(O.Seed, 0x7e91 + Rep);
      RO.InjectWrongReply = -1;
    }
    std::unique_ptr<Workload> W = makeWorkload(RO);
    for (int I = 0; I < SetupsPerReplica; ++I) {
      int64_t T0 = nowNs();
      W->setup();
      SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    }
    W->run(O.Seconds / Replicas, L);
    W->finish(L);
  }
  if (CanPin)
    pthread_setaffinity_np(pthread_self(), sizeof(Orig), &Orig);
  return {{"setup_s", "s", percentile(SetupS, 50)},
          {"peak_rss_mb", "MB", peakRssMb()},
          {"work_per_s", "1/s", percentile(L.Rates, 50)},
          {"iter_us_p50", "us", percentile(L.LatUs, 50)}};
}

/// Traced run: one instance on the run's seed, set up under the tracer,
/// then the loop untraced and traced (at most MaxTracedSeconds); per-layer
/// metrics come from the trace, the loop's tail latency from the untraced
/// part.
std::vector<Metric> perLayer(Workload &W, const Options &O, LoopStats &L,
                             LoopStats &Untraced) {
  Tracer Tr(W.streams());
  Tracer::setActive(&Tr);
  {
    Span Setup(SpanName::LoopSetup);
    W.setup();
  }
  Tracer::setActive(nullptr);
  double TracedS = std::min(O.Seconds / 2, MaxTracedSeconds);
  W.run(O.Seconds - TracedS, Untraced);
  double Flops0 = W.flops();
  Tracer::setActive(&Tr);
  W.run(TracedS, L);
  Tracer::setActive(nullptr);
  double Gflop = (W.flops() - Flops0) * 1e-9;

  TraceSummary Sum = summarize(Tr);
  double Coverage = ratio(Sum.IterSpanS, L.WallS);
  // The trace must account for the loop: iterations cover the timed wall
  // time and every span nests inside its parent.
  L.check(Coverage >= 0.95 && Sum.NestingErrors == 0);
  W.finish(L);

  auto St = [&](SpanName N) -> const SpanStats & {
    return Sum.ByName[static_cast<size_t>(N)];
  };
  auto Calls = [&](SpanName N) { return static_cast<double>(St(N).Calls); };
  auto Busy = [&](SpanName N) { return St(N).SelfS; };
  auto Pct = [&](SpanName N, double P) { return percentile(St(N).DurUs, P); };

  Values WV;
  W.layerValues(WV);
  auto Wv = [&](const char *K) {
    auto It = WV.find(K);
    return It == WV.end() ? 0.0 : It->second;
  };
  double PlainNs = W.plainIterNs();
  double DispatchS = std::accumulate(Sum.DispatchUs.begin(),
                                     Sum.DispatchUs.end(), 0.0) * 1e-6;

  using S = SpanName;
  return {
      {"session.extract.calls", "count", Calls(S::SessionExtract)},
      {"session.extract.busy_s", "s", Busy(S::SessionExtract)},
      {"session.extract.floats", "count", St(S::SessionExtract).ArgSum},
      {"session.serialize.calls", "count", Calls(S::SessionSerialize)},
      {"session.serialize.busy_s", "s", Busy(S::SessionSerialize)},
      {"session.nn.calls", "count", Calls(S::SessionNn)},
      {"session.nn.busy_s", "s", Busy(S::SessionNn)},
      {"session.nn.us_p50", "us", Pct(S::SessionNn, 50)},
      {"session.nn.us_p99", "us", Pct(S::SessionNn, 99)},
      {"session.write_back.calls", "count", Calls(S::SessionWriteBack)},
      {"session.write_back.busy_s", "s", Busy(S::SessionWriteBack)},
      {"session.checkpoint.calls", "count", Calls(S::SessionCheckpoint)},
      {"session.checkpoint.us_p50", "us", Pct(S::SessionCheckpoint, 50)},
      {"session.restore.calls", "count", Calls(S::SessionRestore)},
      {"session.restore.us_p50", "us", Pct(S::SessionRestore, 50)},
      {"engine.nn_rl_sessions.calls", "count", Calls(S::EngineNnRl)},
      {"engine.nn_rl_sessions.busy_s", "s", Busy(S::EngineNnRl)},
      {"engine.nn_rl_sessions.us_p50", "us", Pct(S::EngineNnRl, 50)},
      {"engine.nn_rl_sessions.us_p99", "us", Pct(S::EngineNnRl, 99)},
      {"engine.nn_batch_sessions.calls", "count", Calls(S::EngineNnBatch)},
      {"engine.nn_batch_sessions.busy_s", "s", Busy(S::EngineNnBatch)},
      {"engine.nn_batch_sessions.us_p50", "us", Pct(S::EngineNnBatch, 50)},
      {"engine.nn_batch_sessions.us_p99", "us", Pct(S::EngineNnBatch, 99)},
      {"engine.batch_rows_mean", "rows",
       ratio(St(S::EngineNnBatch).ArgSum, Calls(S::EngineNnBatch))},
      {"engine.publish.calls", "count", Calls(S::EnginePublish)},
      {"engine.publish.us_p50", "us", Pct(S::EnginePublish, 50)},
      {"engine.version_lag_max", "versions", Wv("engine.version_lag_max")},
      {"engine.train_supervised.calls", "count", Calls(S::EngineTrainSl)},
      {"engine.train_supervised.busy_s", "s", Busy(S::EngineTrainSl)},
      {"nn.train_steps", "count", Wv("nn.train_steps")},
      {"nn.train_set_size", "count", Wv("nn.train_set_size")},
      {"nn.gflop", "GFLOP", Gflop},
      {"nn.gflop_per_s", "GFLOP/s", ratio(Gflop, Sum.NnS)},
      {"nn.loss_first", "loss", Wv("nn.loss_first")},
      {"nn.loss_last", "loss", Wv("nn.loss_last")},
      {"pool.threads", "count",
       static_cast<double>(au::ThreadPool::global().numThreads())},
      {"pool.parallel_for.calls", "count", Calls(S::PoolParallelFor)},
      {"pool.parallel_for.us_p50", "us", Pct(S::PoolParallelFor, 50)},
      {"pool.dispatch_us_p50", "us", percentile(Sum.DispatchUs, 50)},
      {"pool.dispatch_share", "ratio", ratio(DispatchS, L.WallS)},
      {"apps.env_step.calls", "count", Calls(S::AppsEnvStep)},
      {"apps.env_step.busy_s", "s", Busy(S::AppsEnvStep)},
      {"apps.env_features.busy_s", "s", Busy(S::AppsEnvFeatures)},
      {"apps.plain_iter_ns", "ns", PlainNs},
      {"apps.loop_overhead_x", "x",
       ratio(percentile(Untraced.LatUs, 50) * 1e3, PlainNs)},
      {"loop.iter_us_p99", "us", percentile(Untraced.LatUs, 99)},
      {"trace.spans", "count", static_cast<double>(Sum.Spans)},
      {"trace.overhead_share", "ratio",
       ratio(L.IterSumS / L.Iterations,
             Untraced.IterSumS / Untraced.Iterations) - 1.0},
      {"trace.coverage_share", "ratio", Coverage},
  };
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "flappy_loop|flappy_fleet|serve_tenants|canny_sl --seed N "
               "--seconds S --trace 0|1 [--inject-wrong-reply CALL] "
               "[--commit C] [--src-digest D]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Commit = "unknown", Digest = "unknown";
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (*End != '\0' || !(O.Seconds > 0) || O.Seconds > 3600)
        return usage("--seconds must be a positive number");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace must be 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--inject-wrong-reply") {
      O.InjectWrongReply = std::strtol(V.c_str(), &End, 10);
    } else if (A == "--commit") {
      Commit = V;
    } else if (A == "--src-digest") {
      Digest = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed)
    return usage("--seed must be a non-negative integer");

  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W)
    return usage("unknown workload");

  LoopStats L, Untraced;
  std::vector<double> SetupS;
  std::vector<Metric> Ms = O.Trace ? perLayer(*W, O, L, Untraced)
                                   : endToEnd(O, L, SetupS);
  L.Attempted += Untraced.Attempted;
  L.Failed += Untraced.Failed;

  std::printf("{\"perfbench_meta\": {\"nproc\": %ld, \"threads\": %d, "
              "\"nn_backend\": %s, \"simd_supported\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"seed\": %llu, \"git_commit\": %s, "
              "\"src_digest\": %s}}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              au::ThreadPool::global().numThreads(),
              jsonString(au::nn::backendName(au::nn::backend())).c_str(),
              au::nn::simdSupported() ? "true" : "false",
              jsonString(__VERSION__).c_str(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              static_cast<unsigned long long>(O.Seed),
              jsonString(Commit).c_str(), jsonString(Digest).c_str());

  // The workload's own names for its end-to-end numbers, with the sample
  // count behind every percentile.
  std::vector<std::pair<std::string, std::string>> Aliases;
  W->aliases(Aliases);
  const LoopStats &Plain = O.Trace ? Untraced : L;
  Values Generic = {{"work_per_s", percentile(Plain.Rates, 50)},
                    {"iter_us_p50", percentile(Plain.LatUs, 50)},
                    {"iter_us_p99", percentile(Plain.LatUs, 99)}};
  std::string Detail = "{\"perfbench_detail\": {\"workload\": " +
                       jsonString(O.Workload) +
                       ", \"trace\": " + (O.Trace ? "1" : "0");
  for (const auto &[Alias, Name] : Aliases)
    Detail += ", " + jsonString(Alias) + ": " + num(Generic[Name]);
  Detail += ", \"iterations\": " + num(static_cast<double>(Plain.Iterations)) +
            ", \"percentile_samples\": " +
            num(static_cast<double>(Plain.LatSeen)) +
            ", \"rate_windows\": " +
            num(static_cast<double>(Plain.Rates.size())) +
            ", \"setup_samples\": " +
            num(static_cast<double>(SetupS.size())) +
            ", \"loop_wall_s\": " + num(Plain.WallS) +
            ", \"failed_share\": " +
            num(ratio(static_cast<double>(L.Failed),
                      static_cast<double>(L.Attempted))) +
            "}}";
  std::printf("%s\n", Detail.c_str());

  bool Correct = L.Attempted > 0 && L.Failed == 0;
  std::string Out = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(L.Attempted) +
                    ", \"failed\": " + std::to_string(L.Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           num(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
