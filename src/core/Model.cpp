//===- core/Model.cpp - Model store entries (theta) ------------------------===//

#include "core/Model.h"

#include "nn/Layers.h"

#include <cassert>
#include <cstdio>
#include <cstring>

using namespace au;

Model::~Model() = default;

nn::Network Model::makeNetwork(int InputSize, int OutSize, Rng &Rand) const {
  if (Cfg.CustomNetwork)
    return Cfg.CustomNetwork(InputSize, OutSize, Rand);
  if (Cfg.Type == ModelType::CNN) {
    assert(Cfg.FrameSide > 0 && Cfg.FrameChannels > 0 &&
           "CNN model requires frame geometry in its config");
    assert(InputSize == Cfg.FrameSide * Cfg.FrameSide * Cfg.FrameChannels &&
           "CNN input size must match the configured frame geometry");
    return nn::buildDeepMindCnn(Cfg.FrameChannels, Cfg.FrameSide,
                                Cfg.HiddenLayers, OutSize, Rand);
  }
  return nn::buildDnn(InputSize, Cfg.HiddenLayers, OutSize, Rand);
}

//===----------------------------------------------------------------------===//
// Binary persistence helpers
//===----------------------------------------------------------------------===//

namespace {
/// Minimal checked binary writer/reader for the model file format.
struct BinFile {
  std::FILE *F = nullptr;
  bool Ok = true;

  void writeU32(uint32_t V) {
    Ok = Ok && std::fwrite(&V, sizeof(V), 1, F) == 1;
  }
  void writeI32(int32_t V) {
    Ok = Ok && std::fwrite(&V, sizeof(V), 1, F) == 1;
  }
  void writeFloats(const float *P, size_t N) {
    writeU32(static_cast<uint32_t>(N));
    Ok = Ok && std::fwrite(P, sizeof(float), N, F) == N;
  }
  void writeFloatVec(const std::vector<float> &V) {
    writeFloats(V.data(), V.size());
  }
  void writeString(const std::string &S) {
    writeU32(static_cast<uint32_t>(S.size()));
    Ok = Ok && std::fwrite(S.data(), 1, S.size(), F) == S.size();
  }

  uint32_t readU32() {
    uint32_t V = 0;
    Ok = Ok && std::fread(&V, sizeof(V), 1, F) == 1;
    return V;
  }
  int32_t readI32() {
    int32_t V = 0;
    Ok = Ok && std::fread(&V, sizeof(V), 1, F) == 1;
    return V;
  }
  std::vector<float> readFloatVec() {
    uint32_t N = readU32();
    std::vector<float> V(Ok ? N : 0);
    if (Ok && N)
      Ok = std::fread(V.data(), sizeof(float), N, F) == N;
    return V;
  }
  std::string readString() {
    uint32_t N = readU32();
    std::string S(Ok ? N : 0, '\0');
    if (Ok && N)
      Ok = std::fread(S.data(), 1, N, F) == N;
    return S;
  }
};

const uint32_t ModelMagic = 0x41554d44; // "AUMD"

void writeHeader(BinFile &B, const Model &M, int ActionOrOutSize) {
  const ModelConfig &C = M.config();
  B.writeU32(ModelMagic);
  B.writeU32(M.kind() == Model::KindTy::Supervised ? 0u : 1u);
  B.writeU32(C.Type == ModelType::DNN ? 0u : 1u);
  B.writeI32(C.FrameSide);
  B.writeI32(C.FrameChannels);
  B.writeI32(M.inputSize());
  B.writeU32(static_cast<uint32_t>(C.HiddenLayers.size()));
  for (int H : C.HiddenLayers)
    B.writeI32(H);
  B.writeI32(ActionOrOutSize);
  B.writeU32(static_cast<uint32_t>(M.outputs().size()));
  for (const WriteBackSpec &O : M.outputs()) {
    B.writeString(O.Name);
    B.writeI32(O.Size);
  }
}

void writeParams(BinFile &B, const nn::Network &Net) {
  const std::vector<nn::ParamView> &Ps = Net.params();
  B.writeU32(static_cast<uint32_t>(Ps.size()));
  for (const nn::ParamView &P : Ps)
    B.writeFloats(P.Values, P.Count);
}

bool readParams(BinFile &B, nn::Network &Net) {
  const std::vector<nn::ParamView> &Ps = Net.params();
  if (B.readU32() != Ps.size())
    return false;
  for (const nn::ParamView &P : Ps) {
    std::vector<float> V = B.readFloatVec();
    if (!B.Ok || V.size() != P.Count)
      return false;
    std::memcpy(P.Values, V.data(), P.Count * sizeof(float));
  }
  // θ changed behind the layers' backs (au_restore / model load):
  // invalidate every packed-weight cache.
  Net.bumpParamGeneration();
  return true;
}

/// Parsed common header fields.
struct Header {
  uint32_t KindTag = 0;
  ModelType Type = ModelType::DNN;
  int FrameSide = 0;
  int FrameChannels = 0;
  int InSize = 0;
  std::vector<int> Hidden;
  int ActionOrOutSize = 0;
  std::vector<WriteBackSpec> Outs;
};

bool readHeader(BinFile &B, Header &H) {
  if (B.readU32() != ModelMagic)
    return false;
  H.KindTag = B.readU32();
  H.Type = B.readU32() == 0 ? ModelType::DNN : ModelType::CNN;
  H.FrameSide = B.readI32();
  H.FrameChannels = B.readI32();
  H.InSize = B.readI32();
  uint32_t NumHidden = B.readU32();
  if (!B.Ok || NumHidden > 64)
    return false;
  for (uint32_t I = 0; I != NumHidden; ++I)
    H.Hidden.push_back(B.readI32());
  H.ActionOrOutSize = B.readI32();
  uint32_t NumOuts = B.readU32();
  if (!B.Ok || NumOuts > 64)
    return false;
  for (uint32_t I = 0; I != NumOuts; ++I) {
    WriteBackSpec S;
    S.Name = B.readString();
    S.Size = B.readI32();
    H.Outs.push_back(std::move(S));
  }
  return B.Ok;
}
} // namespace

//===----------------------------------------------------------------------===//
// SlModel
//===----------------------------------------------------------------------===//

SlModel::SlModel(ModelConfig C)
    : Model(KindTy::Supervised, std::move(C)), Rand(Cfg.Seed) {}

int SlModel::totalOutputSize() const {
  int N = 0;
  for (const WriteBackSpec &O : Outs)
    N += O.Size;
  return N;
}

void SlModel::addSample(const std::vector<float> &X,
                        const std::vector<float> &Y,
                        const std::vector<WriteBackSpec> &Outputs) {
  if (!Built) {
    InSize = static_cast<int>(X.size());
    Outs = Outputs;
    double Lr = Cfg.LearningRate > 0 ? Cfg.LearningRate : 1e-3;
    Trainer = std::make_unique<nn::SupervisedTrainer>(
        makeNetwork(InSize, totalOutputSize(), Rand), Lr);
    Built = true;
  }
  assert(static_cast<int>(X.size()) == InSize && "feature size changed");
  assert(static_cast<int>(Y.size()) == totalOutputSize() &&
         "label size does not match declared outputs");
  Trainer->addSample(X, Y);
}

double SlModel::train(int Epochs, int BatchSize) {
  assert(Built && Trainer && "training an unbuilt SL model");
  return Trainer->train(Epochs, BatchSize, Rand);
}

void SlModel::predictRows(const float *Xs, int Rows, std::vector<float> &Out) {
  assert(Built && Trainer && "predicting with an unbuilt SL model");
  Trainer->predictRowsInto(Xs, Rows, Out);
}

std::vector<float> SlModel::predict(const std::vector<float> &X) {
  std::vector<float> Y;
  predictRows(X.data(), 1, Y);
  return Y;
}

size_t SlModel::numSamples() const {
  return Trainer ? Trainer->numSamples() : 0;
}

std::unique_ptr<ModelSnapshot> SlModel::snapshot() {
  if (!Built || !Trainer)
    return nullptr;
  auto S = std::make_unique<ModelSnapshot>();
  S->Net = Trainer->network().clone();
  // Packed here, before publication, and never again: readers only read.
  S->Net.pack();
  S->Norm = Trainer->normalization();
  return S;
}

size_t SlModel::modelSizeBytes() {
  return Built ? Trainer->network().sizeInBytes() : 0;
}

size_t SlModel::numParams() {
  return Built ? Trainer->network().numParams() : 0;
}

bool SlModel::save(const std::string &Path) {
  if (!Built)
    return false;
  BinFile B;
  B.F = std::fopen(Path.c_str(), "wb");
  if (!B.F)
    return false;
  writeHeader(B, *this, totalOutputSize());
  writeParams(B, Trainer->network());
  const nn::Normalization &N = Trainer->normalization();
  B.writeFloatVec(N.XMean);
  B.writeFloatVec(N.XStd);
  B.writeFloatVec(N.YMean);
  B.writeFloatVec(N.YStd);
  std::fclose(B.F);
  return B.Ok;
}

bool SlModel::load(const std::string &Path) {
  BinFile B;
  B.F = std::fopen(Path.c_str(), "rb");
  if (!B.F)
    return false;
  Header H;
  bool HeaderOk = readHeader(B, H) && H.KindTag == 0;
  if (!HeaderOk) {
    std::fclose(B.F);
    return false;
  }
  Cfg.Type = H.Type;
  Cfg.FrameSide = H.FrameSide;
  Cfg.FrameChannels = H.FrameChannels;
  Cfg.HiddenLayers = H.Hidden;
  InSize = H.InSize;
  Outs = H.Outs;
  double Lr = Cfg.LearningRate > 0 ? Cfg.LearningRate : 1e-3;
  Trainer = std::make_unique<nn::SupervisedTrainer>(
      makeNetwork(InSize, H.ActionOrOutSize, Rand), Lr);
  bool Ok = readParams(B, Trainer->network());
  nn::Normalization N;
  N.XMean = B.readFloatVec();
  N.XStd = B.readFloatVec();
  N.YMean = B.readFloatVec();
  N.YStd = B.readFloatVec();
  Ok = Ok && B.Ok;
  std::fclose(B.F);
  if (!Ok)
    return false;
  Trainer->setNormalization(std::move(N));
  Built = true;
  return true;
}

//===----------------------------------------------------------------------===//
// RlModel
//===----------------------------------------------------------------------===//

RlModel::RlModel(ModelConfig C)
    : Model(KindTy::Reinforcement, std::move(C)), LastStates(1),
      LastActions(1, -1), HaveLast(1, 0) {
  if (Cfg.LearningRate > 0)
    QCfg.LearningRate = Cfg.LearningRate;
}

void RlModel::setQConfig(const nn::QConfig &C) {
  assert(!Built && "Q config must be set before the first step");
  QCfg = C;
  if (Cfg.LearningRate > 0)
    QCfg.LearningRate = Cfg.LearningRate;
}

void RlModel::build(int InputSize, const WriteBackSpec &Output) {
  InSize = InputSize;
  Outs = {Output};
  assert(Output.Size > 1 && "RL output size is the action count (> 1)");
  // The factory captures a shared seed sequence: online and target nets get
  // distinct but deterministic initializations before the initial sync.
  unsigned long long Seed = Cfg.Seed;
  auto MakeNet = [this, Seed]() mutable {
    Rng R(Seed++);
    return makeNetwork(InSize, Outs.front().Size, R);
  };
  Learner = std::make_unique<nn::QLearner>(MakeNet, Output.Size, QCfg,
                                           Cfg.Seed ^ 0x5eedu);
  Learner->configureActors(numActors());
  Built = true;
}

void RlModel::configureActors(int NumActors) {
  assert(NumActors > 0 && "need at least one actor");
  LastStates.resize(static_cast<size_t>(NumActors));
  LastActions.assign(static_cast<size_t>(NumActors), -1);
  HaveLast.assign(static_cast<size_t>(NumActors), 0);
  if (Built)
    Learner->configureActors(NumActors);
}

void RlModel::stepActors(const float *States, int K, int D,
                         const float *Rewards, const uint8_t *Terminals,
                         const WriteBackSpec &Output, bool Learning,
                         int *ActionsOut) {
  if (!Built)
    build(D, Output);
  assert(D == InSize && "extracted state size changed between steps");
  assert(Output.Size == Outs.front().Size && "action count changed");
  assert((!Learning || K == numActors()) &&
         "learning step must cover every configured actor");

  // Rule TRAIN: observe each actor's completed transition in actor order,
  // then advance the training schedule once for the whole tick.
  if (Learning) {
    int Observed = 0;
    for (int A = 0; A < K; ++A) {
      size_t AI = static_cast<size_t>(A);
      if (!HaveLast[AI])
        continue;
      Learner->observeActor(A, LastStates[AI].data(), LastStates[AI].size(),
                            LastActions[AI], Rewards[A],
                            States + AI * static_cast<size_t>(D),
                            static_cast<size_t>(D), Terminals[A] != 0);
      ++Observed;
    }
    if (Observed)
      Learner->finishTick(Observed);
  }

  Learner->selectActions(States, K, D, Learning, ActionsOut);

  if (!Learning)
    return; // Deployment-mode steps never disturb the transition chains.
  for (int A = 0; A < K; ++A) {
    size_t AI = static_cast<size_t>(A);
    if (Terminals[A] != 0) {
      // The episode ended at this state; do not chain the next transition
      // across the au_restore or reset that follows.
      HaveLast[AI] = 0;
      continue;
    }
    const float *Row = States + AI * static_cast<size_t>(D);
    LastStates[AI].assign(Row, Row + D);
    LastActions[AI] = ActionsOut[A];
    HaveLast[AI] = 1;
  }
}

std::vector<float> RlModel::qValues(const std::vector<float> &State) {
  assert(Built && "qValues on an unbuilt RL model");
  return Learner->qValues(State);
}

size_t RlModel::modelSizeBytes() {
  return Built ? Learner->modelSizeBytes() : 0;
}

size_t RlModel::numParams() {
  return Built ? Learner->onlineNetwork().numParams() : 0;
}

bool RlModel::save(const std::string &Path) {
  if (!Built)
    return false;
  BinFile B;
  B.F = std::fopen(Path.c_str(), "wb");
  if (!B.F)
    return false;
  writeHeader(B, *this, Outs.front().Size);
  writeParams(B, Learner->onlineNetwork());
  std::fclose(B.F);
  return B.Ok;
}

bool RlModel::load(const std::string &Path) {
  BinFile B;
  B.F = std::fopen(Path.c_str(), "rb");
  if (!B.F)
    return false;
  Header H;
  bool HeaderOk = readHeader(B, H) && H.KindTag == 1 && H.Outs.size() == 1;
  if (!HeaderOk) {
    std::fclose(B.F);
    return false;
  }
  Cfg.Type = H.Type;
  Cfg.FrameSide = H.FrameSide;
  Cfg.FrameChannels = H.FrameChannels;
  Cfg.HiddenLayers = H.Hidden;
  build(H.InSize, H.Outs.front());
  bool Ok = readParams(B, Learner->onlineNetwork());
  std::fclose(B.F);
  return Ok;
}
