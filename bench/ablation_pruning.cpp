//===- bench/ablation_pruning.cpp - Algorithm 2 threshold ablation -------===//
//
// Ablation of the design choice DESIGN.md calls out: Algorithm 2's two
// pruning thresholds. Sweeps (epsilon1, epsilon2) over the TORCS and Mario
// profiles and reports how many candidates survive; then trains Flappy
// agents on three characteristic settings (no pruning / the paper's
// setting / over-pruned) to show the score impact of the feature set.
//
// Expected shape: the paper's setting keeps a compact informative set; no
// pruning inflates the input with aliases and constants; over-pruning
// starves the model and hurts the score.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "apps/torcs/Torcs.h"
#include "support/Table.h"

using namespace au;
using namespace au::apps;

int main() {
  bench::banner("Ablation: Algorithm 2 pruning thresholds");

  {
    Table Out({"Env", "eps1", "eps2", "Candidates", "Features"});
    MarioEnv Mario;
    TorcsEnv Torcs;
    for (GameEnv *Env : {static_cast<GameEnv *>(&Mario),
                         static_cast<GameEnv *>(&Torcs)})
      for (double Eps1 : {0.0, 0.05, 0.5})
        for (double Eps2 : {0.0, 0.01, 0.05}) {
          analysis::RlExtractionStats Stats;
          std::vector<std::string> F =
              selectRlFeatures(*Env, Eps1, Eps2, 250, &Stats);
          Out.addRow({Env->name(), fmt(Eps1, 2), fmt(Eps2, 3),
                      fmt(static_cast<long long>(Stats.NumCandidates)),
                      fmt(static_cast<long long>(F.size()))});
        }
    Out.print();
  }

  bench::banner("Score impact on Flappy (same training budget)");
  long Steps = bench::scaled(6000, 600);
  struct Setting {
    const char *Label;
    double Eps1, Eps2;
  };
  Table Out({"Setting", "Features", "Progress", "Success"});
  for (Setting S : {Setting{"no pruning", 0.0, 0.0},
                    Setting{"paper-style", 0.05, 0.001},
                    Setting{"over-pruned", 3.0, 0.001}}) {
    FlappyEnv Env;
    RlTrainOptions Opt;
    Opt.FeatureNames = selectRlFeatures(Env, S.Eps1, S.Eps2);
    Opt.TrainSteps = Steps;
    Opt.Seed = 31;
    Opt.QCfg.EpsilonDecaySteps = static_cast<int>(Steps * 0.6);
    Opt.QCfg.LearningRateEnd = 1e-4;
    Opt.QCfg.TrainInterval = 2;
    Engine Eng;
    Session Sn(Eng, Mode::TR);
    trainRl({&Env}, Sn, Opt);
    RlEvalResult R = evalRl({&Env}, Sn, Opt, 10);
    Out.addRow({S.Label, fmt(static_cast<long long>(Opt.FeatureNames.size())),
                fmtPercent(R.MeanProgress), fmtPercent(R.SuccessRate)});
  }
  Out.print();
  return 0;
}
