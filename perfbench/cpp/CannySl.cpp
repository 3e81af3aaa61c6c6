//===- perfbench/cpp/CannySl.cpp - Supervised CNN epochs ------------------===//
//
// canny_sl: set-up collects Canny "Raw" frames, 32 x 32 scenes from
// makeCannyScene, through au_extract / au_NN / au_write_back in TR mode into
// a CNN SL model. Each scene's label is its generating distortion (blur,
// contrast, noise); no autotuning runs. The timed loop repeats
// Session::trainSupervised(model, 1 epoch, batch 16).
//
// Checks: every epoch loss is finite, and the last epoch's loss is below
// the first's.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/canny/Canny.h"
#include "core/Engine.h"

#include <cmath>

using namespace pb;
using namespace au;

namespace {

constexpr int Side = 32;
constexpr int Frames = 256;
constexpr int TrainBatch = 16;
constexpr int Labels = 3;
const std::vector<int> Hidden = {64};

/// Forward FLOPs of one frame through buildDeepMindCnn(1, Side, Hidden, 3):
/// two valid 3x3 convolutions (8 then 16 channels), each followed by a 2x2
/// pool, then the dense head.
double cnnRowFlops() {
  double Flops = 0.0;
  int S = Side, Cin = 1;
  for (int Cout : {8, 16}) {
    int Conv = S - 2;
    Flops += 2.0 * Cout * Cin * 9 * Conv * Conv;
    S = Conv / 2;
    Cin = Cout;
  }
  return Flops + denseFlops(Cin * S * S, Hidden, Labels);
}

class CannySl final : public Workload {
public:
  explicit CannySl(const Options &O) : Seed(O.Seed) {}

  void setup() override {
    // Sessions refer to their Engine, so they go first.
    S.reset();
    Eng.reset();
    Eng = std::make_unique<Engine>();
    S = std::make_unique<Session>(*Eng, Mode::TR);
    ModelConfig C;
    C.Name = ModelName;
    C.Type = ModelType::CNN;
    C.HiddenLayers = Hidden;
    C.FrameSide = Side;
    C.FrameChannels = 1;
    C.Seed = mixSeed(Seed, 31) >> 32;
    S->config(C);
    NameId ModelId = S->intern(ModelName);
    NameId Img = S->intern("IMG");
    WriteBackHandle Out{S->intern("distortion"), Labels};
    std::vector<WriteBackHandle> Outs{Out};

    for (int I = 0; I < Frames; ++I) {
      apps::CannyScene Scene;
      {
        Span Sp(SpanName::AppsScene);
        Scene = apps::makeCannyScene(mixSeed(Seed, 1000 + I), Side);
      }
      {
        Span Sp(SpanName::SessionExtract, 0, Side * Side);
        S->extract(Img, Scene.Input.size(), Scene.Input.data().data());
      }
      {
        Span Sp(SpanName::SessionNn, 0, 0);
        S->nn(ModelId, Img, Outs);
      }
      float Y[Labels] = {static_cast<float>(Scene.Blur),
                         static_cast<float>(Scene.Contrast),
                         static_cast<float>(Scene.Noise)};
      Span Sp(SpanName::SessionWriteBack);
      S->writeBack(Out.Name, Labels, Y);
    }
    Losses.clear();
  }

  void run(double Seconds, LoopStats &L) override {
    timedLoop(Seconds, L, [&] { return epoch(L); });
  }

  void finish(LoopStats &L) override {
    L.check(Losses.size() >= 2 && Losses.back() < Losses.front());
  }

  double flops() override {
    return 3.0 * static_cast<double>(Losses.size()) * Frames * cnnRowFlops();
  }

  void layerValues(Values &V) override {
    V["nn.train_steps"] = static_cast<double>(Losses.size()) *
                          ((Frames + TrainBatch - 1) / TrainBatch);
    V["nn.train_set_size"] = Frames;
    V["nn.loss_first"] = Losses.empty() ? 0.0 : Losses.front();
    V["nn.loss_last"] = Losses.empty() ? 0.0 : Losses.back();
  }

  void aliases(std::vector<std::pair<std::string, std::string>> &A) override {
    A = {{"samples_per_s", "work_per_s"},
         {"epoch_us_p50", "iter_us_p50"},
         {"epoch_us_p99", "iter_us_p99"}};
  }

private:
  /// One training epoch; returns the ns its checks took.
  int64_t epoch(LoopStats &L) {
    if (Tracer *T = Tracer::active())
      T->setIter(static_cast<uint32_t>(Losses.size() + 1));
    int64_t T0 = nowNs();
    double Loss;
    {
      Span It(SpanName::LoopIter);
      Span Sp(SpanName::EngineTrainSl, 0, Frames);
      Loss = S->trainSupervised(ModelName, 1, TrainBatch);
    }
    int64_t T1 = nowNs();
    L.addIter(T1 - T0, Frames);
    L.addLatency(static_cast<double>(T1 - T0) * 1e-3);
    Losses.push_back(Loss);
    L.check(std::isfinite(Loss));
    return nowNs() - T1;
  }

  static constexpr const char *ModelName = "canny_raw_cnn";
  uint64_t Seed;
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<Session> S;
  std::vector<double> Losses;
};

} // namespace

std::unique_ptr<Workload> pb::makeCannySl(const Options &O) {
  return std::make_unique<CannySl>(O);
}
