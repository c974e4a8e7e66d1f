//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//

#include "Inputs.h"

#include "corpus/CorpusGrammars.h"
#include "corpus/SyntheticGrammars.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarParser.h"
#include "grammar/GrammarPrinter.h"
#include "grammar/SentenceGen.h"
#include "pipeline/BuildPipeline.h"
#include "support/Rng.h"

#include <algorithm>
#include <stdexcept>

using namespace lalr;

namespace perfbench {

namespace {

/// Independent streams per input family, so adding draws to one family
/// leaves the others unchanged.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  return (Seed + 1) * 0x9E3779B97F4A7C15ull ^ (Stream * 0xBF58476D1CE4E5B9ull);
}

/// Terminals usable in generated sentences and edits: everything but the
/// end marker, yacc's `error` token (the LR driver treats `error`
/// specially, the reference recognizer does not), and spellings the wire
/// dialect cannot carry (`#` starts a comment anywhere in a request line).
std::vector<SymbolId> plainTerminals(const Grammar &G) {
  std::vector<SymbolId> Out;
  for (SymbolId T = 1; T < G.numTerminals(); ++T)
    if (G.name(T) != "error" && G.name(T).find('#') == std::string::npos)
      Out.push_back(T);
  return Out;
}

/// True when the sentence can be sent as a `parse` request: not empty,
/// no `#`, and not starting with `@` (which names an input file).
bool wireExpressible(const Grammar &G, const std::vector<SymbolId> &S) {
  if (S.empty() || renderSentence(G, S).front() == '@')
    return false;
  for (SymbolId T : S)
    if (G.name(T).find('#') != std::string::npos)
      return false;
  return true;
}

/// Seeded sentences of L(G) followed by one one-token mutation of each
/// (delete, insert or replace a token), rendered for the wire. Sentences
/// the wire dialect cannot carry are drawn again.
std::vector<std::string> sentencePool(const Grammar &G, Rng &R, size_t N,
                                      size_t MaxLen) {
  std::vector<SymbolId> Terms = plainTerminals(G);
  std::vector<std::vector<SymbolId>> Good;
  for (int Attempt = 0; Good.size() < N; ++Attempt) {
    if (Attempt == 100000)
      throw std::runtime_error("no wire-expressible sentences for '" +
                               G.grammarName() + "'");
    std::vector<SymbolId> S = randomSentence(G, R, MaxLen);
    if (wireExpressible(G, S))
      Good.push_back(std::move(S));
  }
  std::vector<std::string> Out;
  for (const auto &S : Good)
    Out.push_back(renderSentence(G, S));
  for (const std::vector<SymbolId> &S0 : Good) {
    std::vector<SymbolId> S;
    do {
      S = S0;
      uint64_t Op = S.size() < 2 ? 1 : R.below(3);
      SymbolId T = Terms[R.below(Terms.size())];
      if (Op == 0)
        S.erase(S.begin() + R.below(S.size()));
      else if (Op == 1)
        S.insert(S.begin() + R.below(S.size() + 1), T);
      else
        S[R.below(S.size())] = T;
    } while (!wireExpressible(G, S));
    Out.push_back(renderSentence(G, S));
  }
  return Out;
}

size_t tokenCount(const std::string &Sentence) {
  size_t N = 0;
  bool In = false;
  for (char C : Sentence) {
    bool Space = C == ' ';
    if (!Space && !In)
      ++N;
    In = !Space;
  }
  return N;
}

ServeRequest buildRequest(const std::string &G, int Version) {
  ServeRequest Q;
  Q.Kind = ReqKind::Build;
  Q.Line = "build " + G + " lalr1";
  Q.Grammar = G;
  Q.Version = Version;
  Q.RefKey = buildKey(G, Version);
  return Q;
}

ServeRequest parseRequest(const ServedGrammar &G, int Version, int Sentence) {
  ServeRequest Q;
  Q.Kind = ReqKind::Parse;
  Q.Line = "parse " + G.Name + " lr " + G.Sentences[Sentence];
  Q.Grammar = G.Name;
  Q.Version = Version;
  Q.Sentence = Sentence;
  Q.Tokens = tokenCount(G.Sentences[Sentence]);
  Q.RefKey = parseKey(G.Name, Version, Sentence);
  return Q;
}

} // namespace

Grammar parseGrammarText(std::string_view Text, std::string_view Name) {
  DiagnosticEngine Diags;
  std::optional<Grammar> G = parseGrammar(Text, Diags, Name);
  if (!G)
    throw std::runtime_error("grammar '" + std::string(Name) +
                             "' does not parse: " + Diags.render());
  return std::move(*G);
}

std::string buildKey(const std::string &G, int Version) {
  return "build|" + G + "|" + std::to_string(Version);
}
std::string parseKey(const std::string &G, int Version, int Sentence) {
  return "parse|" + G + "|" + std::to_string(Version) + "|" +
         std::to_string(Sentence);
}
std::string digestKey(const std::string &G) { return "digest|" + G; }
std::string verifyKey(const std::string &G, int Version) {
  return "verify|" + G + "|" + std::to_string(Version);
}

const ServedGrammar *ServeInputs::grammar(const std::string &Name) const {
  for (const ServedGrammar &G : Grammars)
    if (G.Name == Name)
      return &G;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// cold-build
//===----------------------------------------------------------------------===//

std::vector<GrammarText> coldBuildInputs(uint64_t Seed) {
  std::vector<GrammarText> Out;
  for (const CorpusEntry &E : realisticCorpusEntries())
    Out.push_back({E.Name, E.Source});
  // The DP-heavy synthetic: 64 precedence levels, 4290 nt-transitions.
  Out.push_back({"tower", printGrammarText(makeExprTower(64, 2))});
  // Seeded random reduced grammars: mid-size, so the draws vary the
  // shape of the input without dominating the pass.
  Rng R(streamSeed(Seed, 1));
  RandomGrammarParams P;
  P.NumTerminals = 10;
  P.NumNonterminals = 16;
  P.MaxProdsPerNt = 3;
  P.MaxRhsLen = 4;
  for (int I = 0; I < 8; ++I) {
    Grammar G = makeRandomReducedGrammar(R.next(), P);
    Out.push_back({"random" + std::to_string(I), printGrammarText(G)});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// serve-hot
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t HotClients = 4;
constexpr size_t HotRequestsPerClient = 4096;
constexpr size_t HotSentences = 16; ///< per grammar, plus as many mutations
constexpr const char *HotGrammar = "ansic";

/// %nonassoc removes sentences from the context-free language on purpose,
/// so the Earley recognizer (which sees only the productions) is no
/// reference for such a grammar's LR verdicts. Grammars declaring it get
/// build requests only.
bool declaresNonassoc(const Grammar &G) {
  for (SymbolId T = 0; T < G.numTerminals(); ++T)
    if (G.precedence(T).Level != 0 &&
        G.precedence(T).Associativity == Assoc::NonAssoc)
      return true;
  return false;
}

} // namespace

ServeInputs serveHotInputs(uint64_t Seed) {
  ServeInputs In;
  Rng SentR(streamSeed(Seed, 2));
  for (const CorpusEntry &E : realisticCorpusEntries()) {
    ServedGrammar SG;
    SG.Name = E.Name;
    SG.Versions.push_back(E.Source);
    Grammar G = parseGrammarText(E.Source, E.Name);
    SG.ParseChecked = !declaresNonassoc(G);
    if (SG.ParseChecked)
      SG.Sentences = sentencePool(G, SentR, HotSentences, 40);
    In.Grammars.push_back(std::move(SG));
  }

  std::vector<const ServedGrammar *> Others, Parsable;
  for (const ServedGrammar &G : In.Grammars) {
    if (G.Name != HotGrammar)
      Others.push_back(&G);
    if (G.ParseChecked)
      Parsable.push_back(&G);
  }

  // Warm pass: every distinct request once.
  for (const ServedGrammar &G : In.Grammars) {
    In.Warm.push_back(buildRequest(G.Name, 0));
    for (size_t S = 0; S < G.Sentences.size(); ++S)
      In.Warm.push_back(parseRequest(G, 0, static_cast<int>(S)));
  }

  Rng MixR(streamSeed(Seed, 3));
  In.Client.resize(HotClients);
  for (auto &List : In.Client)
    for (size_t I = 0; I < HotRequestsPerClient; ++I) {
      if (MixR.chance(1, 2)) {
        std::string G = MixR.chance(1, 2)
                            ? HotGrammar
                            : Others[MixR.below(Others.size())]->Name;
        List.push_back(buildRequest(G, 0));
      } else {
        const ServedGrammar &G = *Parsable[MixR.below(Parsable.size())];
        List.push_back(parseRequest(
            G, 0, static_cast<int>(MixR.below(G.Sentences.size()))));
      }
    }
  return In;
}

//===----------------------------------------------------------------------===//
// serve-edit
//===----------------------------------------------------------------------===//

std::optional<Grammar> applyEditLine(const Grammar &G,
                                     const std::string &Patch) {
  std::vector<std::string> Toks;
  size_t I = 0;
  while (I < Patch.size()) {
    size_t J = Patch.find(' ', I);
    if (J == std::string::npos)
      J = Patch.size();
    if (J > I)
      Toks.push_back(Patch.substr(I, J - I));
    I = J + 1;
  }
  std::string Error;
  std::optional<GrammarEdit> E = parseGrammarEdit(Toks, Error);
  if (!E)
    throw std::runtime_error("edit does not parse: " + Patch);
  DiagnosticEngine Diags;
  return applyGrammarEdit(G, *E, Diags);
}

namespace {

/// Mid-size corpus grammars whose LALR(1) tables are conflict-free, split
/// between the two connections. Conflict-free tables accept exactly the
/// context-free language, so Earley stays an exact reference after
/// precedence edits.
const char *const EditGrammars[2][2] = {{"miniada", "minisql"},
                                        {"oberon", "minilua"}};
constexpr size_t EditPairsPerGrammar = 6;
constexpr size_t EditRounds = 4;
constexpr size_t ReadsPerEdit = 5;
constexpr size_t EditSentences = 8;

struct EditPair {
  std::string Do, Undo;
  std::string Text; ///< the working text after Do
  /// How the server classifies each direction (grammarEditClassName).
  std::string DoClass, UndoClass;
};

bool conflictFree(const Grammar &G) {
  BuildContext Ctx(G);
  BuildResult R =
      BuildPipeline(Ctx, {.Kind = TableKind::YaccLalr, .Threads = 0}).run();
  return R.ok() && R.Table.conflicts().empty();
}

std::string joinNames(const Grammar &G, std::span<const SymbolId> Syms) {
  std::string Out;
  for (SymbolId S : Syms) {
    Out += ' ';
    Out += G.name(S);
  }
  return Out;
}

/// The server keeps each edited grammar as text: every edit applies to
/// parse(working text) and stores print(edited grammar). Reparsing renumbers
/// nonterminals by first appearance, so production ids stay put across
/// edits only once the text is a fixed point of print(parse(.)).
std::string printParse(const std::string &Text, const std::string &Name) {
  return printGrammarText(parseGrammarText(Text, Name));
}

/// Draws one do/undo pair of class \p Class (0 conflict-local, 1
/// production-local, 2 add-prod + rm-prod) against the fixed-point text
/// \p Base. The pair must apply, keep the table conflict-free, keep the
/// working text a fixed point, and the undo must restore \p Base exactly.
/// Only terminals are inserted, so the nonterminal order never moves.
EditPair drawPair(const std::string &Base, const std::string &Name, int Class,
                  Rng &R) {
  Grammar G = parseGrammarText(Base, Name);
  std::vector<SymbolId> Terms = plainTerminals(G);
  size_t NP = G.numProductions();
  for (int Attempt = 0; Attempt < 500; ++Attempt) {
    EditPair P;
    ProductionId Prod = static_cast<ProductionId>(1 + R.below(NP - 1));
    const Production &Pr = G.production(Prod);
    SymbolId T = Terms[R.below(Terms.size())];
    std::vector<SymbolId> Rhs(Pr.Rhs.begin(), Pr.Rhs.end());
    Rhs.insert(Rhs.begin() + R.below(Rhs.size() + 1), T);
    if (Class == 0 && R.chance(1, 2)) {
      if (G.precedence(T).Level != 0)
        continue;
      P.Do = "prec " + G.name(T) + (R.chance(1, 2) ? " left " : " right ") +
             std::to_string(1 + R.below(9));
      P.Undo = "prec " + G.name(T) + " none 0";
    } else if (Class == 0) {
      if (Pr.PrecSymbol == T)
        continue;
      P.Do = "prodprec " + std::to_string(Prod) + " " + G.name(T);
      P.Undo = "prodprec " + std::to_string(Prod) + " -";
    } else if (Class == 1) {
      P.Do = "rhs " + std::to_string(Prod) + joinNames(G, Rhs);
      P.Undo = "rhs " + std::to_string(Prod) + joinNames(G, Pr.Rhs);
    } else {
      P.Do = "add-prod " + G.name(Pr.Lhs) + joinNames(G, Rhs);
    }
    // The wire dialect starts a comment at '#' (a production may hold a
    // '#' token that the undo would have to spell).
    if ((P.Do + P.Undo).find('#') != std::string::npos)
      continue;
    std::optional<Grammar> Edited = applyEditLine(G, P.Do);
    if (!Edited)
      continue;
    P.Text = printGrammarText(*Edited);
    if (P.Text == Base || printParse(P.Text, Name) != P.Text)
      continue;
    Grammar After = parseGrammarText(P.Text, Name);
    if (!conflictFree(After))
      continue;
    if (Class == 2) {
      // The printer groups rules by left-hand side, so the appended
      // production comes back from the reparse with a mid-table id.
      for (ProductionId Q = 1; Q < After.numProductions(); ++Q) {
        const Production &A = After.production(Q);
        if (After.name(A.Lhs) == G.name(Pr.Lhs) &&
            joinNames(After, A.Rhs) == joinNames(G, Rhs))
          P.Undo = "rm-prod " + std::to_string(Q);
      }
      if (P.Undo.empty())
        continue;
    }
    std::optional<Grammar> Restored = applyEditLine(After, P.Undo);
    if (!Restored || printGrammarText(*Restored) != Base)
      continue;
    P.DoClass = grammarEditClassName(computeGrammarDelta(G, *Edited).Class);
    P.UndoClass =
        grammarEditClassName(computeGrammarDelta(After, *Restored).Class);
    return P;
  }
  throw std::runtime_error("could not draw an edit pair for '" + Name + "'");
}

} // namespace

ServeInputs serveEditInputs(uint64_t Seed) {
  ServeInputs In;
  Rng EditR(streamSeed(Seed, 4));
  Rng SentR(streamSeed(Seed, 5));
  Rng MixR(streamSeed(Seed, 6));
  std::map<std::string, std::vector<EditPair>> Pairs;
  std::map<std::string, std::vector<ServeRequest>> Normalize;

  auto EditReq = [](const ServedGrammar &G, const std::string &Patch,
                    int Version, const std::string &Key) {
    ServeRequest Q;
    Q.Kind = ReqKind::Edit;
    Q.Line = "edit " + G.Name + " " + Patch;
    Q.Grammar = G.Name;
    Q.Version = Version; // the version the edit leaves in effect
    Q.RefKey = "edit|" + G.Name + "|" + Key;
    return Q;
  };

  for (const auto &Owned : EditGrammars)
    for (const char *Name : Owned) {
      ServedGrammar SG;
      SG.Name = Name;
      SG.ParseChecked = true;
      // The server's first edit starts from print(parse(corpus source));
      // no-op edits (`prec <t> none 0` on a terminal without precedence,
      // one print(parse(.)) round each) walk it to the fixed point the
      // edit pairs are drawn against.
      std::vector<std::string> Chain = {
          printParse(corpusGrammarByName(Name)->Source, Name)};
      while (Chain.size() < 256 &&
             printParse(Chain.back(), Name) != Chain.back())
        Chain.push_back(printParse(Chain.back(), Name));
      if (Chain.size() == 256)
        throw std::runtime_error(std::string("'") + Name +
                                 "' never reaches a printed fixed point");
      const std::string Base = Chain.back();
      Grammar G = parseGrammarText(Base, Name);
      SG.Versions.push_back(Base);
      SG.Sentences = sentencePool(G, SentR, EditSentences, 40);

      // Two pairs of each class, in seeded order.
      std::vector<int> Classes = {0, 0, 1, 1, 2, 2};
      for (size_t I = Classes.size(); I > 1; --I)
        std::swap(Classes[I - 1], Classes[EditR.below(I)]);
      for (int C : Classes) {
        Pairs[Name].push_back(drawPair(Base, Name, C, EditR));
        SG.Versions.push_back(Pairs[Name].back().Text);
      }

      // Versions after the edit pairs: the normalization chain, first
      // entry (the server's initial working text) is InitialVersion.
      SG.InitialVersion =
          Chain.size() > 1 ? static_cast<int>(SG.Versions.size()) : 0;
      SG.Versions.insert(SG.Versions.end(), Chain.begin(), Chain.end() - 1);
      std::string Noop;
      for (SymbolId T : plainTerminals(G))
        if (G.precedence(T).Level == 0) {
          Noop = "prec " + G.name(T) + " none 0";
          break;
        }
      for (size_t K = 1; K < Chain.size(); ++K)
        Normalize[Name].push_back(EditReq(
            SG, Noop,
            K + 1 < Chain.size() ? SG.InitialVersion + static_cast<int>(K) : 0,
            "normalize|" + std::to_string(K)));
      In.Grammars.push_back(std::move(SG));
    }

  // After each edit: a build first (timed by class in the traced run),
  // then a seeded mix of builds and parses.
  auto Reads = [&](std::vector<ServeRequest> &List, const ServedGrammar &G,
                   int Version, const std::string &EditClass) {
    ServeRequest B = buildRequest(G.Name, Version);
    B.AfterEdit = EditClass;
    List.push_back(std::move(B));
    for (size_t I = 1; I < ReadsPerEdit; ++I) {
      if (MixR.chance(1, 3))
        List.push_back(buildRequest(G.Name, Version));
      else
        List.push_back(parseRequest(
            G, Version, static_cast<int>(MixR.below(G.Sentences.size()))));
    }
  };

  In.Client.resize(2);
  for (size_t C = 0; C < 2; ++C) {
    std::vector<ServeRequest> &List = In.Client[C];
    for (size_t Round = 0; Round < EditRounds; ++Round)
      for (const char *Name : EditGrammars[C]) {
        const ServedGrammar &G = *In.grammar(Name);
        std::vector<size_t> Order(EditPairsPerGrammar);
        for (size_t I = 0; I < Order.size(); ++I)
          Order[I] = I;
        for (size_t I = Order.size(); I > 1; --I)
          std::swap(Order[I - 1], Order[MixR.below(I)]);
        for (size_t K : Order) {
          const EditPair &P = Pairs[Name][K];
          int V = static_cast<int>(K + 1);
          List.push_back(EditReq(G, P.Do, V, std::to_string(K) + "|do"));
          Reads(List, G, V, P.DoClass);
          List.push_back(EditReq(G, P.Undo, 0, std::to_string(K) + "|undo"));
          Reads(List, G, 0, P.UndoClass);
        }
      }
  }

  // Warm pass: the normalizing edits, then the first round of each
  // connection's cycle (every edit pair once, so every version has been
  // built and parsed).
  for (const auto &Owned : EditGrammars)
    for (const char *Name : Owned)
      In.Warm.insert(In.Warm.end(), Normalize[Name].begin(),
                     Normalize[Name].end());
  for (size_t C = 0; C < 2; ++C) {
    size_t PerRound = In.Client[C].size() / EditRounds;
    In.Warm.insert(In.Warm.end(), In.Client[C].begin(),
                   In.Client[C].begin() + PerRound);
  }
  return In;
}

} // namespace perfbench
