//===- bench/table3_rl.cpp - Reproduces Table 3 (RL rows) ----------------===//
//
// Table 3 of the paper, reinforcement-learning rows: the scripted player
// reference ("Players"), the Raw pixel/CNN baseline (DeepMind-style) and
// the All version (program variables selected by Algorithm 2) for the five
// interactive programs, with training time, per-iteration execution time
// and the progress / success-rate scores averaged over 10 runs.
//
// Budgets are tuned per game, as RL training schedules always are. Raw
// gets a small iteration budget because each of its iterations costs two
// orders of magnitude more wall-clock than All's — this mirrors the
// paper's regime, where Raw exhausts a 24-hour budget ("t/o") that All
// finishes well inside.
//
// Expected shape (paper): All reaches close-to-human scores within the
// budget while Raw lags far behind, and All's per-iteration overhead is
// far below Raw's.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/arkanoid/Arkanoid.h"
#include "apps/breakout/Breakout.h"
#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "apps/torcs/Torcs.h"
#include "support/Table.h"

using namespace au;
using namespace au::apps;

namespace {
/// Per-game training schedule for the All variant.
struct EnvSchedule {
  long AllSteps;
  std::vector<int> Hidden;
  int MaxEpisodeSteps;
};

std::string scorePair(const RlEvalResult &R) {
  return fmtPercent(R.MeanProgress) + "/" + fmtPercent(R.SuccessRate);
}

void addRows(Table &Out, GameEnv &Env, const EnvSchedule &Sched,
             long RawSteps) {
  RlTrainOptions Base;
  Base.Seed = 77;
  Base.MaxEpisodeSteps = Sched.MaxEpisodeSteps;
  double BaseStep = baselineStepSeconds(Env, Base, 4);
  RlEvalResult Players = evalHeuristic(Env, Base, 10);

  // All: program variables via Algorithm 2.
  RlTrainOptions AllOpt = Base;
  AllOpt.FeatureNames = selectRlFeatures(Env);
  AllOpt.TrainSteps = Sched.AllSteps;
  AllOpt.Hidden = Sched.Hidden;
  AllOpt.QCfg.EpsilonDecaySteps = static_cast<int>(Sched.AllSteps * 0.5);
  AllOpt.QCfg.TrainInterval = 2;
  Engine AllEng;
  Session AllS(AllEng, Mode::TR);
  RlTrainResult AllTrain = trainRl({&Env}, AllS, AllOpt);
  RlEvalResult AllEval = evalRl({&Env}, AllS, AllOpt, 10);

  // Raw: rendered frames through the DeepMind-style CNN. Episodes are
  // capped at 500 iterations to bound the (much slower) evaluation.
  RlTrainOptions RawOpt = Base;
  RawOpt.Variant = RlVariant::Raw;
  RawOpt.FrameSide = 16;
  RawOpt.TrainSteps = RawSteps;
  RawOpt.MaxEpisodeSteps = 500;
  RawOpt.QCfg.EpsilonDecaySteps = static_cast<int>(RawSteps * 0.5);
  RawOpt.QCfg.TrainInterval = 2;
  Engine RawEng;
  Session RawS(RawEng, Mode::TR);
  RlTrainResult RawTrain = trainRl({&Env}, RawS, RawOpt);
  RlEvalResult RawEval = evalRl({&Env}, RawS, RawOpt, 10);

  Out.addRow({std::string("[RL] ^ ") + Env.name(),
              fmt(BaseStep * 1e6, 3), scorePair(Players),
              fmt(RawTrain.TrainSeconds, 1),
              fmt(RawEval.MeanStepSeconds * 1e6, 1), scorePair(RawEval),
              fmt(AllTrain.TrainSeconds, 1),
              fmt(AllEval.MeanStepSeconds * 1e6, 1), scorePair(AllEval),
              fmt(AllEval.MeanStepSeconds / BaseStep, 2)});
}
} // namespace

int main() {
  long RawSteps = bench::scaled(4000, 400);

  bench::banner("Table 3 (RL rows): players vs Raw vs All");
  std::printf("(Raw trained %ld iterations — each costs ~2 orders of\n"
              " magnitude more than All's, so this is already more\n"
              " wall-clock than All receives, mirroring the paper's 't/o'\n"
              " regime; scores are progress%%/success%% over 10 runs; exec\n"
              " times in microseconds per game-loop iteration)\n\n",
              RawSteps);

  Table Out({"Program", "Base Exec(us)", "Players", "Raw Train(s)",
             "Raw Exec(us)", "Raw Score", "All Train(s)", "All Exec(us)",
             "All Score", "All Overhead(x)"});

  FlappyEnv Flappy;
  addRows(Out, Flappy, {bench::scaled(40000, 2000), {32, 32}, 500},
          RawSteps);
  MarioEnv Mario;
  addRows(Out, Mario, {bench::scaled(40000, 2000), {32, 32}, 500}, RawSteps);
  ArkanoidEnv Arkanoid;
  addRows(Out, Arkanoid, {bench::scaled(80000, 4000), {64, 32}, 2000},
          RawSteps);
  TorcsEnv Torcs;
  addRows(Out, Torcs, {bench::scaled(16000, 1000), {32, 32}, 500}, RawSteps);
  BreakoutEnv Breakout;
  addRows(Out, Breakout, {bench::scaled(80000, 4000), {32, 32}, 2000},
          RawSteps);
  Out.print();

  std::printf("\nNote: compare shapes with the paper — All close to or above "
              "Players,\nRaw far behind at equal budget, Raw per-iteration "
              "cost >> All.\n");
  return 0;
}
