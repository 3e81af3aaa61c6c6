//===- bench/table2_model.cpp - Reproduces Table 2 -----------------------===//
//
// Table 2 of the paper: model statistics. For the SL programs, the trace
// size (extracted feature values) and the serialized model size of the
// Raw / Med / Min feature versions, plus the Raw/Min ratios. For the RL
// programs, the same for Raw (pixels) vs All (program variables) over a
// fixed-length training window, plus the checkpoint/restore latency.
//
// Expected shape (paper): Raw traces and models dwarf Min/All because raw
// inputs are larger and need extra (conv) layers.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/arkanoid/Arkanoid.h"
#include "apps/breakout/Breakout.h"
#include "apps/canny/Canny.h"
#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "apps/phylip/Phylip.h"
#include "apps/rothwell/Rothwell.h"
#include "apps/sphinx/Sphinx.h"
#include "apps/torcs/Torcs.h"
#include "support/Table.h"

#include <memory>

using namespace au;
using namespace au::apps;
using analysis::SlPick;

namespace {
struct SlSizes {
  size_t Trace[3];
  size_t Model[3];
};

/// Runs a minimal training pass per version just to materialize the traces
/// and models (sizes do not depend on training quality).
template <typename Experiment> SlSizes slSizes(Experiment &Exp) {
  SlSizes S{};
  for (SlPick Pick : {SlPick::Raw, SlPick::Med, SlPick::Min}) {
    Exp.train(Pick, /*Epochs=*/2);
    S.Trace[static_cast<int>(Pick)] = Exp.traceBytes(Pick);
    S.Model[static_cast<int>(Pick)] = Exp.modelBytes(Pick);
  }
  return S;
}

std::string kb(size_t Bytes) { return fmt(Bytes / 1024.0, 1) + " KiB"; }

template <typename Experiment>
void addSlRow(Table &Out, const char *Name, Experiment &Exp) {
  SlSizes S = slSizes(Exp);
  int Raw = static_cast<int>(SlPick::Raw);
  int Med = static_cast<int>(SlPick::Med);
  int Min = static_cast<int>(SlPick::Min);
  Out.addRow({std::string("[SL] ") + Name, kb(S.Trace[Raw]), kb(S.Model[Raw]),
              kb(S.Trace[Med]), kb(S.Model[Med]), kb(S.Trace[Min]),
              kb(S.Model[Min]),
              fmt(static_cast<double>(S.Trace[Raw]) / S.Trace[Min], 2),
              fmt(static_cast<double>(S.Model[Raw]) / S.Model[Min], 2)});
}

void addRlRow(Table &Out, GameEnv &Env, long Window) {
  RlTrainOptions AllOpt;
  AllOpt.FeatureNames = selectRlFeatures(Env);
  AllOpt.TrainSteps = Window;
  AllOpt.Seed = 11;
  AllOpt.QCfg.TrainInterval = 4;
  Engine AllEng;
  Session AllS(AllEng, Mode::TR);
  RlTrainResult All = trainRl({&Env}, AllS, AllOpt);

  RlTrainOptions RawOpt;
  RawOpt.Variant = RlVariant::Raw;
  RawOpt.FrameSide = 16;
  RawOpt.TrainSteps = Window;
  RawOpt.Seed = 11;
  RawOpt.QCfg.TrainInterval = 4;
  Engine RawEng;
  Session RawS(RawEng, Mode::TR);
  RlTrainResult Raw = trainRl({&Env}, RawS, RawOpt);

  Out.addRow({std::string("[RL] ") + Env.name(), kb(Raw.TraceBytes),
              kb(Raw.ModelBytes), kb(All.TraceBytes), kb(All.ModelBytes),
              fmt(static_cast<double>(Raw.TraceBytes) / All.TraceBytes, 1),
              fmt(static_cast<double>(Raw.ModelBytes) / All.ModelBytes, 2),
              fmt(All.CheckpointSeconds * 1e3, 3) + " ms",
              fmt(All.RestoreSeconds * 1e3, 3) + " ms"});
}
} // namespace

int main() {
  long Window = bench::scaled(1500, 200);

  bench::banner("Table 2 (SL half): trace and model sizes, Raw/Med/Min");
  {
    Table Out({"Program", "Raw Trace", "Raw Model", "Med Trace", "Med Model",
               "Min Trace", "Min Model", "Raw/Min Trace", "Raw/Min Model"});
    CannyExperiment Canny(/*NumTrain=*/16, /*NumTest=*/4, /*Seed=*/2100);
    addSlRow(Out, "canny", Canny);
    RothwellExperiment Roth(12, 4, 2200);
    addSlRow(Out, "rothwell", Roth);
    PhylipExperiment Phy(12, 4, 2300);
    addSlRow(Out, "phylip", Phy);
    SphinxExperiment Sph(24, 6, 2400);
    addSlRow(Out, "sphinx", Sph);
    Out.print();
  }

  bench::banner("Table 2 (RL half): Raw vs All over a fixed training window");
  std::printf("(window = %ld game-loop iterations; checkpoint/restore are\n"
              " in-memory snapshots, not the paper's KVM images — compare\n"
              " the checkpoint > restore shape, not absolute values)\n\n",
              Window);
  {
    Table Out({"Program", "Raw Trace", "Raw Model", "All Trace", "All Model",
               "Raw/All Trace", "Raw/All Model", "Checkpoint", "Restore"});
    FlappyEnv Flappy;
    addRlRow(Out, Flappy, Window);
    MarioEnv Mario;
    addRlRow(Out, Mario, Window);
    ArkanoidEnv Arkanoid;
    addRlRow(Out, Arkanoid, Window);
    TorcsEnv Torcs;
    addRlRow(Out, Torcs, Window);
    BreakoutEnv Breakout;
    addRlRow(Out, Breakout, Window);
    Out.print();
  }
  return 0;
}
