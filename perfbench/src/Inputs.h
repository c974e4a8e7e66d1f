//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
///
/// \file
/// Every input the benchmark feeds the program is made here from the
/// --seed argument: the cold-build grammar texts, the sentence pools and
/// their one-token mutations, the per-connection request mixes, and the
/// edit do/undo pairs. The same seed gives the same inputs in the
/// reference process and in the measuring process.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "Common.h"

#include "grammar/Grammar.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One grammar handed to the program as .y text.
struct GrammarText {
  std::string Name;
  std::string Text;
};

/// cold-build: the realistic corpus, the expression tower and seeded
/// random grammars, all as text.
std::vector<GrammarText> coldBuildInputs(uint64_t Seed);

enum class ReqKind { Build, Parse, Edit };

/// One request line of a serving workload plus what the checks need.
struct ServeRequest {
  ReqKind Kind = ReqKind::Build;
  std::string Line;    ///< the wire line sent to the server
  std::string Grammar; ///< grammar name
  int Version = 0;     ///< grammar version in effect (serve-edit; 0 = base)
  int Sentence = -1;   ///< Parse: index into the grammar's sentence pool
  size_t Tokens = 0;   ///< Parse: sentence length
  /// Build: class of the edit this build is the first build after
  /// ("conflict-local", ...); empty when it is not.
  std::string AfterEdit;
  std::string RefKey;  ///< reference key of the expected answer
};

/// A grammar a serving workload targets.
struct ServedGrammar {
  std::string Name;
  /// serve-edit: .y text of every version the server's working copy goes
  /// through (index 0 = the base the edit pairs start from and return
  /// to). serve-hot: one entry, the corpus source.
  std::vector<std::string> Versions;
  /// The version in effect before the first request.
  int InitialVersion = 0;
  /// Sentences as space-separated terminal spellings; the second half
  /// are one-token mutations of the first half.
  std::vector<std::string> Sentences;
  bool ParseChecked = false; ///< parse requests are issued for it
};

struct ServeInputs {
  std::vector<ServedGrammar> Grammars;
  std::vector<ServeRequest> Warm;                ///< warm pass, in order
  std::vector<std::vector<ServeRequest>> Client; ///< one cycled list each
  const ServedGrammar *grammar(const std::string &Name) const;
};

ServeInputs serveHotInputs(uint64_t Seed);
ServeInputs serveEditInputs(uint64_t Seed);

/// parseGrammar that throws std::runtime_error on a grammar that does not
/// parse (every input is generated, so that is a benchmark bug).
lalr::Grammar parseGrammarText(std::string_view Text, std::string_view Name);

/// Applies one edit in the manifest dialect (the text after
/// `edit <grammar> `) to \p G, as the server does.
std::optional<lalr::Grammar> applyEditLine(const lalr::Grammar &G,
                                           const std::string &Patch);

/// Reference keys (the lines of the reference file).
std::string buildKey(const std::string &G, int Version);
std::string parseKey(const std::string &G, int Version, int Sentence);
std::string digestKey(const std::string &G);
std::string verifyKey(const std::string &G, int Version);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
