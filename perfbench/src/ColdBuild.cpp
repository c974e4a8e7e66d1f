//===- perfbench/src/ColdBuild.cpp - The cold-build workload --------------===//
///
/// \file
/// One op is one single-threaded pass over the input set: for each
/// grammar, `.y` text -> parseGrammar -> fresh BuildContext ->
/// BuildPipeline{Lalr1, Compress} -> compressed table. The op's time is
/// the sum of those calls; the checks between them are not timed.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Reference.h"
#include "Workloads.h"

#include "grammar/GrammarParser.h"
#include "pipeline/BuildPipeline.h"

#include <array>
#include <memory>

using namespace lalr;

namespace perfbench {

namespace {

/// Passes per statistics window: enough for a p90 with ten beyond it.
constexpr size_t WindowPasses = 100;

struct Prepared {
  GrammarText In;
  std::string Digest;           ///< serialized-table digest from set-up
  size_t CompressedEntries = 0; ///< explicit compressed actions, set-up
};

/// The program's work for one grammar, as a user calls it.
double buildOnce(const GrammarText &GT, std::unique_ptr<BuildContext> &Ctx,
                 std::optional<BuildResult> &R) {
  int64_t T0 = nowNs();
  DiagnosticEngine Diags;
  std::optional<Grammar> G = parseGrammar(GT.Text, Diags, GT.Name);
  if (G) {
    Ctx = std::make_unique<BuildContext>(std::move(*G));
    R.emplace(BuildPipeline(*Ctx, {.Kind = TableKind::Lalr1,
                                   .Compress = true,
                                   .Threads = 0})
                  .run());
  }
  return (nowNs() - T0) / 1e3;
}

std::string digestOf(const BuildResult &R) {
  std::vector<uint8_t> Blob = serializeTable(R.grammar(), R.Table);
  return hex64(fnv64(Blob.data(), Blob.size()));
}

/// Checks one build against the set-up answers. During set-up (\p Setup)
/// the digest must equal the YACC-propagation table's, which fixes the
/// answers later builds are held to.
bool checkBuild(Prepared &P, const std::optional<BuildResult> &R,
                const std::string &YaccDigest, bool Setup, RunResult &Res) {
  if (!R || !R->ok() || !R->Compressed) {
    Res.wrong(P.In.Name + ": build failed" +
              (R ? ": " + R->Status.Message : std::string()));
    return false;
  }
  std::string D = digestOf(*R);
  size_t Entries = R->Compressed->explicitActionEntries();
  if (Setup && P.Digest.empty()) {
    if (D != YaccDigest) {
      Res.wrong(P.In.Name + ": LALR(1) table differs from the YACC-kind table");
      return false;
    }
    P.Digest = D;
    P.CompressedEntries = Entries;
    return true;
  }
  if (D != P.Digest || Entries != P.CompressedEntries) {
    Res.wrong(P.In.Name + ": table digest differs from the set-up build");
    return false;
  }
  return true;
}

/// One untraced pass: returns the op time, microseconds.
double untracedPass(std::vector<Prepared> &Inputs, const ReferenceMap &Ref,
                    bool Setup, RunResult &Res) {
  double OpUs = 0;
  for (Prepared &P : Inputs) {
    std::unique_ptr<BuildContext> Ctx;
    std::optional<BuildResult> R;
    OpUs += buildOnce(P.In, Ctx, R);
    std::string Yacc = Setup ? expected(Ref, digestKey(P.In.Name), Res) : "";
    checkBuild(P, R, Yacc, Setup, Res);
  }
  Res.endOp();
  return OpUs;
}

//===----------------------------------------------------------------------===//
// Traced pass
//===----------------------------------------------------------------------===//

/// Layers of one build, in the order they run. The lookahead children
/// are not spans of their own in the program; their durations come from
/// the PipelineStats stage records the context emits, laid end to end
/// inside the lookaheads span.
enum Layer {
  LParse,
  LAnalysis,
  LLr0,
  LLookaheads,
  LNtIndex,
  LRelations,
  LSolveRead,
  LSolveFollow,
  LLaUnion,
  LTableFill,
  LCompress,
  NumLayers
};
constexpr const char *LayerSpan[NumLayers] = {
    "grammar.parse",   "grammar.analysis", "lr.lr0",
    "lalr.lookaheads", "lalr.nt_index",    "lalr.relations",
    "lalr.solve_read", "lalr.solve_follow", "lalr.la_union",
    "pipeline.table_fill", "lr.compress"};
constexpr const char *LookaheadStage[] = {"nt-index", "relations",
                                          "solve-read", "solve-follow",
                                          "la-union"};

struct PassCounts {
  uint64_t Lr0States = 0, RelationEdges = 0, SlabBytes = 0,
           CompressedEntries = 0, TextBytes = 0;
};

double tracedPass(std::vector<Prepared> &Inputs, SpanRecorder &Rec,
                  uint64_t Op, std::array<double, NumLayers> &LayerUs,
                  PassCounts &Counts, RunResult &Res) {
  LayerUs.fill(0);
  Counts = {};
  // Outputs stay alive until the op span is closed, so neither the
  // checks nor the destructors fall inside it (as in the untraced pass).
  std::vector<std::unique_ptr<BuildContext>> Ctxs(Inputs.size());
  std::vector<std::optional<BuildResult>> Results(Inputs.size());
  int32_t Root = Rec.begin("cold-build.op", -1, Op);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const Prepared &P = Inputs[I];
    int32_t B = Rec.begin("build", Root, Op);
    auto Timed = [&](Layer L, auto &&Fn) {
      int32_t S = Rec.begin(LayerSpan[L], B, Op);
      Fn();
      Rec.end(S);
      LayerUs[L] += Rec.spans()[S].durUs();
      return S;
    };
    std::optional<Grammar> G;
    Timed(LParse, [&] {
      DiagnosticEngine Diags;
      G = parseGrammar(P.In.Text, Diags, P.In.Name);
    });
    if (!G) {
      Rec.end(B);
      continue;
    }
    std::unique_ptr<BuildContext> &Ctx = Ctxs[I];
    Ctx = std::make_unique<BuildContext>(std::move(*G));
    Ctx->setThreads(0);
    Timed(LAnalysis, [&] { Ctx->analysis(); });
    Timed(LLr0, [&] { Ctx->lr0(); });
    int32_t LaSpan = Timed(LLookaheads, [&] { Ctx->lookaheads(); });
    int64_t At = Rec.spans()[LaSpan].StartNs;
    for (int J = 0; J < 5; ++J) {
      double Us = Ctx->stats().stageUs(LookaheadStage[J]);
      int64_t End = std::min<int64_t>(At + static_cast<int64_t>(Us * 1e3),
                                      Rec.spans()[LaSpan].EndNs);
      Rec.add(LayerSpan[LNtIndex + J], At, End, LaSpan, Op);
      LayerUs[LNtIndex + J] += Us;
      At = End;
    }
    std::optional<BuildResult> &R = Results[I];
    Timed(LTableFill, [&] {
      R.emplace(BuildPipeline(*Ctx, {.Kind = TableKind::Lalr1, .Threads = 0})
                    .run());
    });
    Timed(LCompress, [&] {
      R->Compressed = CompressedTable::compress(R->Table, Ctx->grammar());
    });
    Rec.end(B);
  }
  Rec.end(Root);

  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (!Ctxs[I]) {
      Res.wrong(Inputs[I].In.Name + ": grammar text does not parse");
      continue;
    }
    const LalrLookaheads &LA = Ctxs[I]->lookaheads();
    const LalrRelations &Rel = LA.relations();
    Counts.Lr0States += Ctxs[I]->lr0().numStates();
    Counts.RelationEdges += Rel.readsEdgeCount() + Rel.includesEdgeCount() +
                            Rel.lookbackEdgeCount();
    Counts.SlabBytes += LA.slabBytes();
    Counts.TextBytes += Inputs[I].In.Text.size();
    if (checkBuild(Inputs[I], Results[I], "", false, Res))
      Counts.CompressedEntries +=
          Results[I]->Compressed->explicitActionEntries();
  }
  Res.endOp();
  return Rec.spans()[Root].durUs();
}

} // namespace

RunResult runColdBuild(const Options &O, const ReferenceMap &Ref,
                       double Seconds) {
  RunResult Res;
  checkVerified(Ref, Res);
  std::vector<Prepared> Inputs;
  for (GrammarText &GT : coldBuildInputs(O.Seed))
    Inputs.push_back({std::move(GT), {}, 0});

  // Set-up: the untimed first pass, SetupRepeats times; its time is the
  // program's calls, without the checks.
  std::vector<double> SetupS;
  for (int I = 0; I < SetupRepeats; ++I)
    SetupS.push_back(untracedPass(Inputs, Ref, true, Res) / 1e6);

  double Untimed = O.Trace ? Seconds * UntracedShare : Seconds;
  std::vector<double> OpUs;
  int64_t End = nowNs() + static_cast<int64_t>(Untimed * 1e9);
  while (nowNs() < End)
    OpUs.push_back(untracedPass(Inputs, Ref, false, Res));

  if (!O.Trace) {
    Res.set("peak_rss_mb", peakRssMb(), "MB");
    // Window throughput counts the program's own calls only: the checks
    // between builds are not part of the op.
    LatencyWindows Lat(WindowPasses);
    std::vector<double> Rates;
    double Sum = 0;
    for (size_t I = 0; I < OpUs.size(); ++I) {
      Lat.add(OpUs[I]);
      Sum += OpUs[I];
      if ((I + 1) % WindowPasses == 0) {
        Rates.push_back(WindowPasses / (Sum / 1e6));
        Sum = 0;
      }
    }
    if (Rates.empty())
      Rates.push_back(OpUs.size() / (Sum / 1e6));
    setLatencyMetrics(Res, {std::move(Lat)}, std::move(Rates));
    setSetupMetric(Res, SetupS);
    return Res;
  }

  SpanRecorder Rec;
  std::vector<std::array<double, NumLayers>> PerOp;
  std::vector<double> TracedOpUs;
  PassCounts Counts;
  End = nowNs() + static_cast<int64_t>((Seconds - Untimed) * 1e9);
  for (uint64_t Op = 0; nowNs() < End && !Rec.full(); ++Op) {
    PerOp.emplace_back();
    TracedOpUs.push_back(
        tracedPass(Inputs, Rec, Op, PerOp.back(), Counts, Res));
  }

  for (int L = 0; L < NumLayers; ++L) {
    std::vector<double> V;
    for (const auto &A : PerOp)
      V.push_back(A[L]);
    Res.set(std::string(LayerSpan[L]) + "_us", median(V), "us");
  }
  Res.set("grammar.parse_mb_per_s",
          Counts.TextBytes / Res.Metrics["grammar.parse_us"].Value, "MB/s");
  Res.set("lr.lr0_states", Counts.Lr0States, "count");
  Res.set("lalr.relation_edges", Counts.RelationEdges, "count");
  Res.set("lalr.slab_bytes", Counts.SlabBytes, "bytes");
  Res.set("lr.compressed_entries", Counts.CompressedEntries, "count");

  // Reconcile: the share of op time the layer spans cover, i.e. what is
  // left after the self time of the op and build spans.
  std::vector<double> Self = selfTimesUs(Rec.spans());
  double OpTotal = 0, Uncovered = 0;
  for (size_t I = 0; I < Rec.spans().size(); ++I) {
    const Span &S = Rec.spans()[I];
    if (S.Parent < 0)
      OpTotal += S.durUs();
    if (S.Parent < 0 || std::string_view(S.Name) == "build")
      Uncovered += Self[I];
  }
  Res.set("pipeline.reconcile_ratio", 1 - Uncovered / OpTotal, "ratio");
  Res.set("trace.overhead_ratio", median(TracedOpUs) / median(OpUs), "ratio");
  if (!O.SpansDir.empty())
    writeSpans(O.SpansDir + "/spans-cold-build.tsv", Rec.spans());
  return Res;
}

} // namespace perfbench
