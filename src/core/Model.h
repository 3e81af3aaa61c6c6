//===- core/Model.h - Model store entries (theta) --------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model abstraction behind the model store theta. A model is created by
/// au_config and built lazily once the runtime has seen the data that fixes
/// the input and output layer sizes (the paper: "the size of the input and
/// output layers is automatically computed based on the input fed to the
/// network and the output to be predicted").
///
/// Two concrete kinds realize the two algorithms: SlModel (AdamOpt
/// regression over collected (feature, target) samples, trained offline
/// after execution) and RlModel (online Q-learning driven by the au_NN
/// reward/terminal arguments, with one step, stepActors, for one actor or a
/// fleet of K). Dispatch uses an LLVM-style kind tag.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_MODEL_H
#define AU_CORE_MODEL_H

#include "core/Config.h"
#include "nn/QLearner.h"
#include "nn/Supervised.h"

#include <memory>
#include <string>
#include <vector>

namespace au {

/// One declared model output: for SL the number of predicted floats under
/// this name; for RL the number of discrete actions (the paper's
/// au_write_back("output", 5, actionKey)).
struct WriteBackSpec {
  std::string Name;
  int Size = 1;
};

/// One immutable published version of a supervised model (DESIGN.md
/// §10): a packed copy of the trained network and its normalization
/// statistics, built once on the trainer thread. Readers hold it through
/// shared_ptr<const ModelSnapshot> and run nn::predictRows on it with no
/// state of their own; nothing mutates it after publication.
struct ModelSnapshot {
  uint64_t Version = 0; ///< Monotone publication counter (1 = first).
  nn::Network Net;
  nn::Normalization Norm;
};

/// Base class for model-store entries.
class Model {
public:
  enum class KindTy { Supervised, Reinforcement };

  virtual ~Model();

  KindTy kind() const { return Kind; }
  const ModelConfig &config() const { return Cfg; }
  bool isBuilt() const { return Built; }
  int inputSize() const { return InSize; }

  /// Declared outputs (fixed at build time).
  const std::vector<WriteBackSpec> &outputs() const { return Outs; }

  /// Serialized parameter footprint in bytes (Table 2 "Model Size").
  virtual size_t modelSizeBytes() = 0;

  /// Total trainable parameters.
  virtual size_t numParams() = 0;

  /// Persists the model (architecture + parameters + statistics) to
  /// \p Path; returns false on I/O failure.
  virtual bool save(const std::string &Path) = 0;

  /// Loads a model persisted by save(); returns false on failure.
  virtual bool load(const std::string &Path) = 0;

  /// A packed copy of the live network and its statistics, for
  /// publication; null when the model kind does not support snapshot
  /// serving (RL models serve through the live learner) or the model is
  /// unbuilt. Call from the thread that trains the model.
  virtual std::unique_ptr<ModelSnapshot> snapshot() { return nullptr; }

protected:
  Model(KindTy K, ModelConfig C) : Kind(K), Cfg(std::move(C)) {}

  /// Builds the underlying network for \p InputSize, per the configured
  /// type (DNN or DeepMind-style CNN over the configured frame geometry).
  nn::Network makeNetwork(int InputSize, int OutSize, Rng &Rand) const;

  KindTy Kind;
  ModelConfig Cfg;
  bool Built = false;
  int InSize = 0;
  std::vector<WriteBackSpec> Outs;
};

/// Supervised (AdamOpt) model: collects samples during TR runs, trains
/// offline, predicts during TS runs.
class SlModel : public Model {
public:
  explicit SlModel(ModelConfig C);

  static bool classof(const Model *M) {
    return M->kind() == KindTy::Supervised;
  }

  /// Records one complete training example; builds the network on first
  /// use. \p Y is the concatenation of all declared outputs in order.
  void addSample(const std::vector<float> &X, const std::vector<float> &Y,
                 const std::vector<WriteBackSpec> &Outputs);

  /// Offline training (the SL TR regime). Returns final mean loss.
  double train(int Epochs, int BatchSize);

  /// The prediction entry point (TS inference): \p Xs holds \p Rows
  /// feature vectors back to back (Rows x inputSize, row-major); \p Out
  /// receives Rows x totalOutputSize predictions, the concatenated outputs
  /// per row. Requires a built (trained or loaded) model. Reuses its
  /// staging, so the primitive hot path makes no per-call allocations.
  /// Rows == 1 is the single-call au_NN path.
  void predictRows(const float *Xs, int Rows, std::vector<float> &Out);

  /// predictRows for one feature vector \p X.
  std::vector<float> predict(const std::vector<float> &X);

  size_t numSamples() const;
  size_t modelSizeBytes() override;
  size_t numParams() override;
  bool save(const std::string &Path) override;
  bool load(const std::string &Path) override;

  std::unique_ptr<ModelSnapshot> snapshot() override;

private:
  int totalOutputSize() const;

  std::unique_ptr<nn::SupervisedTrainer> Trainer;
  Rng Rand;
};

/// Reinforcement (Q-learning) model: online training interleaved with
/// software execution.
class RlModel : public Model {
public:
  explicit RlModel(ModelConfig C);

  static bool classof(const Model *M) {
    return M->kind() == KindTy::Reinforcement;
  }

  /// Gives the model \p NumActors concurrent actors, each with its own
  /// transition chain and replay shard (DESIGN.md §8), and starts every
  /// chain empty, so a training run never links its first step to the
  /// last step of an earlier run. A new model has one actor, the paper's
  /// serial game loop. The replay keeps its contents unless the count
  /// changes. May be called before the model is built; the learner is
  /// configured at build time.
  void configureActors(int NumActors);

  int numActors() const { return static_cast<int>(LastActions.size()); }

  /// The au_NN step for \p K actors (K = 1 is Session::nn's RL form).
  /// \p States holds the K extracted states back to back (K x D
  /// row-major); \p Rewards and \p Terminals are per-actor. When
  /// \p Learning, each actor's completed transition is observed in actor
  /// order and one finishTick advances the training schedule, with K equal
  /// to the configured actor count. The K action selections run as a single
  /// batched forward; \p ActionsOut receives the K chosen actions. A
  /// terminal step ends the actor's chain, so the au_restore that follows
  /// starts cleanly. Builds the network on first use from \p D and
  /// \p Output. Deployment-mode calls (evaluation) may use any K and never
  /// disturb the chains.
  void stepActors(const float *States, int K, int D, const float *Rewards,
                  const uint8_t *Terminals, const WriteBackSpec &Output,
                  bool Learning, int *ActionsOut);

  /// Q-values for diagnostics.
  std::vector<float> qValues(const std::vector<float> &State);

  nn::QLearner *learner() { return Learner.get(); }

  /// Overrides the default Q hyperparameters; must precede the first step.
  void setQConfig(const nn::QConfig &C);

  size_t modelSizeBytes() override;
  size_t numParams() override;
  bool save(const std::string &Path) override;
  bool load(const std::string &Path) override;

private:
  void build(int InputSize, const WriteBackSpec &Output);

  std::unique_ptr<nn::QLearner> Learner;
  nn::QConfig QCfg;
  // One transition chain per actor: the state and action of its last
  // non-terminal learning step, waiting for the next step's reward.
  std::vector<std::vector<float>> LastStates;
  std::vector<int> LastActions;
  std::vector<uint8_t> HaveLast;
};

} // namespace au

#endif // AU_CORE_MODEL_H
