//===- examples/model_inspect.cpp - Inspect saved .aumodel files ---------===//
//
// A small utility over the model persistence format: prints the kind,
// architecture, declared outputs and parameter statistics of a model saved
// by Session::saveModel / Model::save. Useful when shipping trained models
// between TR and TS deployments.
//
// Usage:  ./build/examples/model_inspect <file.aumodel> [...]
//
//===----------------------------------------------------------------------===//

#include "core/Model.h"

#include <cmath>
#include <cstdio>

using namespace au;

/// Tries to load \p Path as either model kind and prints its description;
/// returns false when the file is not a readable model.
static bool inspect(const char *Path) {
  // The header's kind tag decides which class accepts the file; try both.
  ModelConfig Probe;
  Probe.Name = "inspect";
  std::unique_ptr<Model> M;
  {
    auto Sl = std::make_unique<SlModel>(Probe);
    if (Sl->load(Path))
      M = std::move(Sl);
  }
  if (!M) {
    auto Rl = std::make_unique<RlModel>(Probe);
    if (Rl->load(Path))
      M = std::move(Rl);
  }
  if (!M) {
    std::fprintf(stderr, "error: %s: not a readable .aumodel file\n", Path);
    return false;
  }

  const ModelConfig &C = M->config();
  std::printf("%s:\n", Path);
  std::printf("  kind        : %s\n",
              M->kind() == Model::KindTy::Supervised ? "supervised (AdamOpt)"
                                                     : "reinforcement (Q)");
  std::printf("  model type  : %s\n", modelTypeName(C.Type));
  if (C.Type == ModelType::CNN)
    std::printf("  frame       : %dx%dx%d\n", C.FrameChannels, C.FrameSide,
                C.FrameSide);
  std::printf("  input size  : %d\n", M->inputSize());
  std::printf("  hidden      : ");
  for (int H : C.HiddenLayers)
    std::printf("%d ", H);
  std::printf("\n  outputs     : ");
  for (const WriteBackSpec &O : M->outputs())
    std::printf("%s[%d] ", O.Name.c_str(), O.Size);
  std::printf("\n  parameters  : %zu (%zu bytes serialized)\n",
              M->numParams(), M->modelSizeBytes());
  return true;
}

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: %s <file.aumodel> [...]\n", Argv[0]);
    return 2;
  }
  bool Ok = true;
  for (int I = 1; I < Argc; ++I)
    Ok = inspect(Argv[I]) && Ok;
  return Ok ? 0 : 1;
}
