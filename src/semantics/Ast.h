//===- semantics/Ast.h - Statement AST for the formal semantics -*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statement language of Fig. 8. The paper gives small-step rules over
/// statements s; this AST covers exactly the constructs the rules mention:
/// assignment plus the seven primitives. Programs are statement sequences.
///
/// This module exists to make the semantics *executable*: the interpreter in
/// Interp.h runs these statements over explicit sigma / pi / theta stores, so
/// every rule of the figure can be unit- and property-tested, and the
/// production Session can be validated against the formal model.
///
//===----------------------------------------------------------------------===//

#ifndef AU_SEMANTICS_AST_H
#define AU_SEMANTICS_AST_H

#include "core/Config.h"

#include <string>
#include <variant>
#include <vector>

namespace au {
namespace semantics {

/// x := v (values are float lists; a scalar is a singleton list).
struct AssignStmt {
  std::string Var;
  std::vector<float> Value;
};

/// @au_config(mdName, delta, alpha, l, n1, ...).
struct ConfigStmt {
  std::string ModelName;
  ModelType Type = ModelType::DNN;
  Algorithm Algo = Algorithm::AdamOpt;
  std::vector<int> Layers;
};

/// @au_extract(extName, size, x): appends x[0 .. sigma(size)-1] to
/// pi[extName]. Size is the name of a program variable, per the rule's
/// sigma[size] lookup.
struct ExtractStmt {
  std::string ExtName;
  std::string SizeVar;
  std::string Var;
};

/// @au_NN(mdName, extName, wbName).
struct NNStmt {
  std::string ModelName;
  std::string ExtName;
  std::string WbName;
};

/// @au_write_back(wbName, size, x): sigma[x[i] -> pi(wbName)[i]].
struct WriteBackStmt {
  std::string WbName;
  std::string SizeVar;
  std::string Var;
};

/// @au_serialize(t1, t2): pi[strcat(t1,t2) -> concat(pi(t1), pi(t2))].
struct SerializeStmt {
  std::string First;
  std::string Second;
};

/// @au_checkpoint().
struct CheckpointStmt {};

/// @au_restore().
struct RestoreStmt {};

/// skip (the terminal configuration of each rule).
struct SkipStmt {};

using Stmt = std::variant<AssignStmt, ConfigStmt, ExtractStmt, NNStmt,
                          WriteBackStmt, SerializeStmt, CheckpointStmt,
                          RestoreStmt, SkipStmt>;

/// A program is a finite statement sequence.
using Program = std::vector<Stmt>;

} // namespace semantics
} // namespace au

#endif // AU_SEMANTICS_AST_H
