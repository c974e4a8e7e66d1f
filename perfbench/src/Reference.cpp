//===- perfbench/src/Reference.cpp - Expected answers ---------------------===//

#include "Reference.h"

#include "Inputs.h"

#include "earley/EarleyParser.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarPrinter.h"
#include "pipeline/BuildPipeline.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace lalr;

namespace perfbench {

namespace {

/// The YACC-propagation table of \p G (Algorithm 4.63 of the dragon book:
/// spontaneous generation plus propagation), an independent LALR(1)
/// construction.
BuildResult yaccTable(BuildContext &Ctx) {
  return BuildPipeline(Ctx, {.Kind = TableKind::YaccLalr, .Threads = 0}).run();
}

/// True when the ArtifactVerifier accepts the DeRemer-Pennello build.
bool verified(const Grammar &G) {
  BuildContext Ctx(G);
  BuildResult R = BuildPipeline(Ctx, {.Kind = TableKind::Lalr1,
                                      .Threads = 0,
                                      .Verify = true})
                      .run();
  return R.ok() && R.Verify && R.Verify->ok();
}

/// Maps a rendered sentence back to terminal ids: a word names a terminal
/// directly or is a literal token with its quotes stripped.
bool sentenceSymbols(const Grammar &G, const std::string &Text,
                     std::vector<SymbolId> &Out) {
  std::istringstream In(Text);
  std::string W;
  while (In >> W) {
    SymbolId S = G.findSymbol(W);
    if (S == InvalidSymbol)
      S = G.findSymbol("'" + W + "'");
    if (S == InvalidSymbol || !G.isTerminal(S))
      return false;
    Out.push_back(S);
  }
  return true;
}

/// Reference lines for every grammar version a request reads, and for
/// every edit reply.
bool serveReference(const ServeInputs &In,
                    std::map<std::string, std::string> &Out,
                    std::string &Error) {
  std::vector<const std::vector<ServeRequest> *> Lists = {&In.Warm};
  for (const auto &L : In.Client)
    Lists.push_back(&L);

  std::set<std::pair<std::string, int>> Read;
  for (const auto *L : Lists)
    for (const ServeRequest &Q : *L)
      if (Q.Kind != ReqKind::Edit)
        Read.insert({Q.Grammar, Q.Version});

  for (const auto &[Name, V] : Read) {
    const ServedGrammar &SG = *In.grammar(Name);
    Grammar G = parseGrammarText(SG.Versions[V], Name);
    BuildContext Ctx(G);
    BuildResult Y = yaccTable(Ctx);
    if (!Y.ok()) {
      Error = "reference build of '" + Name + "' failed";
      return false;
    }
    Out[buildKey(Name, V)] =
        "build " + Name + " lalr1 states=" +
        std::to_string(Y.Table.numStates()) +
        " conflicts=" + std::to_string(Y.Table.conflicts().size());
    Out[verifyKey(Name, V)] = verified(G) ? "ok" : "fail";
    GrammarAnalysis An(G);
    for (size_t S = 0; S < SG.Sentences.size(); ++S) {
      std::vector<SymbolId> Syms;
      if (!sentenceSymbols(G, SG.Sentences[S], Syms)) {
        Error = "sentence does not tokenize: " + SG.Sentences[S];
        return false;
      }
      Out[parseKey(Name, V, static_cast<int>(S))] =
          earleyRecognize(G, An, Syms) ? "accepted" : "rejected";
    }
  }

  // Edit replies: follow the version each grammar is at through the warm
  // pass and then each connection's cycle, applying every edit the way
  // the server does (to the parsed working text).
  std::map<std::string, int> At;
  for (const ServedGrammar &SG : In.Grammars)
    At[SG.Name] = SG.InitialVersion;
  for (const auto *L : Lists)
    for (const ServeRequest &Q : *L) {
      if (Q.Kind != ReqKind::Edit)
        continue;
      const ServedGrammar &SG = *In.grammar(Q.Grammar);
      int Before = At[Q.Grammar];
      At[Q.Grammar] = Q.Version;
      if (Out.count(Q.RefKey))
        continue;
      Grammar G = parseGrammarText(SG.Versions[Before], SG.Name);
      std::optional<Grammar> Edited =
          applyEditLine(G, Q.Line.substr(6 + SG.Name.size()));
      if (!Edited || printGrammarText(*Edited) != SG.Versions[Q.Version]) {
        Error = "edit '" + Q.Line + "' does not lead to the version it names";
        return false;
      }
      Out[Q.RefKey] = "edit " + SG.Name + " applied " +
                      grammarEditClassName(
                          computeGrammarDelta(G, *Edited).Class);
    }
  return true;
}

bool coldReference(uint64_t Seed, std::map<std::string, std::string> &Out,
                   std::string &Error) {
  for (const GrammarText &GT : coldBuildInputs(Seed)) {
    Grammar G = parseGrammarText(GT.Text, GT.Name);
    BuildContext Ctx(G);
    BuildResult Y = yaccTable(Ctx);
    if (!Y.ok()) {
      Error = "reference build of '" + GT.Name + "' failed";
      return false;
    }
    std::vector<uint8_t> Blob = serializeTable(Ctx.grammar(), Y.Table);
    Out[digestKey(GT.Name)] = hex64(fnv64(Blob.data(), Blob.size()));
    Out[verifyKey(GT.Name, 0)] = verified(G) ? "ok" : "fail";
  }
  return true;
}

} // namespace

bool writeReference(Workload W, uint64_t Seed, const std::string &Path,
                    std::string &Error) {
  std::map<std::string, std::string> Out;
  bool Ok = false;
  switch (W) {
  case Workload::ColdBuild:
    Ok = coldReference(Seed, Out, Error);
    break;
  case Workload::ServeHot:
    Ok = serveReference(serveHotInputs(Seed), Out, Error);
    break;
  case Workload::ServeEdit:
    Ok = serveReference(serveEditInputs(Seed), Out, Error);
    break;
  }
  if (!Ok)
    return false;
  std::ofstream F(Path);
  for (const auto &[K, V] : Out)
    F << K << '\t' << V << '\n';
  F.close();
  if (!F) {
    Error = "cannot write " + Path;
    return false;
  }
  return true;
}

bool loadReference(const std::string &Path, ReferenceMap &Out,
                   std::string &Error) {
  std::ifstream F(Path);
  if (!F) {
    Error = "cannot read reference " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(F, Line)) {
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos) {
      Error = "malformed reference line: " + Line;
      return false;
    }
    Out[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return true;
}

std::string expected(const ReferenceMap &Ref, const std::string &Key,
                     RunResult &R) {
  auto It = Ref.find(Key);
  if (It != Ref.end())
    return It->second;
  R.wrong("no reference answer for " + Key);
  return {};
}

void checkVerified(const ReferenceMap &Ref, RunResult &R) {
  size_t Seen = 0;
  for (const auto &[K, V] : Ref)
    if (K.rfind("verify|", 0) == 0) {
      ++Seen;
      if (V != "ok")
        R.wrong("ArtifactVerifier rejected " + K.substr(7));
    }
  if (Seen == 0)
    R.wrong("reference has no verify entries");
}

} // namespace perfbench
