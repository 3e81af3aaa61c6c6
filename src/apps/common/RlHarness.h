//===- apps/common/RlHarness.h - Autonomization harness for RL -*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an interactive benchmark program through the Autonomizer
/// primitives, reproducing the paper's RL training and deployment regime:
///
///   reset -> au_checkpoint once ->
///   loop { au_extract*(state) ; au_serialize ; au_NN(reward, term) ;
///          au_write_back(action) ; act ; if (term) au_restore }
///
/// There is one trainer and one evaluator. Each runs over caller-owned
/// envs, one lane Session per env over the caller's Engine, and fuses the
/// lanes' au_NN calls into one Engine::nnRlSessions step per tick
/// (DESIGN.md §8). One env is the paper's serial loop; K envs are a fleet of
/// K actors in lockstep, each following the same protocol with its own
/// checkpoint manager. Results are bitwise identical at any AU_NN_THREADS
/// setting.
///
/// Two variants mirror the paper's comparison: All feeds the program
/// variables selected by Algorithm 2 into a DNN; Raw feeds rendered frames
/// into the DeepMind-style CNN. The harness measures training time, trace
/// and model sizes (Table 2), periodic evaluation scores (Table 3, Fig. 17)
/// and checkpoint/restore latency.
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_COMMON_RLHARNESS_H
#define AU_APPS_COMMON_RLHARNESS_H

#include "analysis/FeatureExtraction.h"
#include "apps/common/GameEnv.h"
#include "core/Engine.h"
#include "nn/QLearner.h"

#include <string>
#include <vector>

namespace au {
namespace apps {

/// Which feature source the model consumes.
enum class RlVariant {
  All, ///< Program variables selected by Algorithm 2 (DNN).
  Raw  ///< Rendered pixel frames (DeepMind-style CNN).
};

/// One point of a learning curve.
struct CurvePoint {
  long Steps = 0;
  double Progress = 0.0;
  double SuccessRate = 0.0;
};

/// Training options.
struct RlTrainOptions {
  RlVariant Variant = RlVariant::All;
  /// Feature-variable names for the All variant (from Algorithm 2).
  std::vector<std::string> FeatureNames;
  /// Frame side length for the Raw variant.
  int FrameSide = 20;
  /// Total environment steps of training budget.
  long TrainSteps = 20000;
  /// Episode step cap (truncated episodes count as failures).
  int MaxEpisodeSteps = 400;
  /// Level seed (layout); per-episode jitter varies within it.
  uint64_t Seed = 7;
  /// Hidden layer widths.
  std::vector<int> Hidden = {32, 32};
  /// Q-learning hyperparameters.
  nn::QConfig QCfg;
  /// Evaluate greedily every this many steps (0 = never) for the curve.
  long EvalEvery = 0;
  int EvalEpisodes = 10;
};

/// Training outcome and cost accounting.
struct RlTrainResult {
  std::string ModelName;
  double TrainSeconds = 0.0;
  long StepsRun = 0;
  long Episodes = 0;
  size_t TraceBytes = 0;  ///< Floats extracted during training (Table 2).
  size_t ModelBytes = 0;  ///< Serialized model size (Table 2).
  size_t NumParams = 0;
  double CheckpointSeconds = 0.0; ///< Mean au_checkpoint latency.
  double RestoreSeconds = 0.0;    ///< Mean au_restore latency.
  std::vector<CurvePoint> Curve;  ///< Periodic greedy evaluations.
};

/// Evaluation outcome.
struct RlEvalResult {
  double MeanProgress = 0.0;
  double SuccessRate = 0.0;
  double MeanStepSeconds = 0.0; ///< Per-iteration wall time (Table 3 Exec).
};

/// The model name the harness registers for (env, variant).
std::string rlModelName(const GameEnv &Env, RlVariant V);

/// Runs the full feature-selection pipeline for \p Env: a scripted profile
/// run, Algorithm 2 over its targets, then restriction to the variables the
/// program exposes at runtime (the paper extracts arbitrary program
/// variables via instrumentation; our environments surface a fixed set).
/// \p Stats, when non-null, receives the pruning diagnostics.
std::vector<std::string>
selectRlFeatures(GameEnv &Env, double Epsilon1 = 1e-6,
                 double Epsilon2 = 1e-4, int ProfileSteps = 200,
                 analysis::RlExtractionStats *Stats = nullptr);

/// Trains an agent on the K = Envs.size() caller-owned envs through lane
/// Sessions over \p Main's Engine; \p Main must be in TR mode. The model is
/// configured through \p Main and given K actors.
///
/// Each lane plays the paper's protocol on its own env and checkpoint
/// manager: au_checkpoint at the start, au_restore after 7 of every 8
/// episodes, and a fresh jittered episode plus a new au_checkpoint after
/// every 8th. Lane k's n-th fresh episode has the level-seed jitter
/// n * K + k, so with one env the run is the serial loop of the paper. The K
/// au_NN calls of a tick fuse into one model step: transitions land in
/// per-actor replay shards and the training schedule advances once per
/// tick (callers of a fleet typically set Opt.QCfg.TrainInterval = K, the
/// vectorized-DQN schedule of one minibatch per tick).
///
/// The lanes' primitive counters fold into \p Main's stats; the result's
/// TraceBytes is the traceBytes() delta of \p Main, evaluation included.
RlTrainResult trainRl(const std::vector<GameEnv *> &Envs, Session &Main,
                      const RlTrainOptions &Opt);

/// Greedy evaluation over \p Episodes jittered episodes, played by
/// L = min(Envs.size(), Episodes) deployment-mode lanes over \p Main's
/// Engine: lane i plays episodes i, i + L, ..., and each tick fuses the live
/// lanes' au_NN calls into one batched inference. Scores are summed in
/// episode order, so the result does not depend on L. Each env is left in
/// the state it was found in, the training chains are not touched, and
/// \p Main's mode is never changed; the lanes' counters fold into \p Main.
/// With one env, MeanStepSeconds is one game's per-iteration time (Table 3
/// Exec).
RlEvalResult evalRl(const std::vector<GameEnv *> &Envs, Session &Main,
                    const RlTrainOptions &Opt, int Episodes);

/// The scripted near-optimal player ("human players" reference).
RlEvalResult evalHeuristic(GameEnv &Env, const RlTrainOptions &Opt,
                           int Episodes);

/// Uniform-random play (the monkey-testing reference of Section 2).
RlEvalResult evalRandom(GameEnv &Env, const RlTrainOptions &Opt,
                        int Episodes);

/// Plain un-autonomized execution time per game-loop iteration, for the
/// overhead ratio of Table 3.
double baselineStepSeconds(GameEnv &Env, const RlTrainOptions &Opt,
                           int Episodes);

} // namespace apps
} // namespace au

#endif // AU_APPS_COMMON_RLHARNESS_H
