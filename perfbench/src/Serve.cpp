//===- perfbench/src/Serve.cpp - The serve-hot and serve-edit workloads ---===//
///
/// \file
/// An in-process NetServer with default options on a loopback port,
/// driven by closed-loop NetClient connections (each sends its next
/// request only after the previous reply): four on serve-hot, two on
/// serve-edit. One op is one request. Every reply is checked against the
/// reference answer for the grammar version in effect.
///
/// The traced run cannot put spans inside the server without changing
/// it, so after each real round trip the client replays the request's
/// layers through their public calls — parseManifest, hashGrammarSource,
/// BuildService::runBatch / ParseService::run on a warm benchmark-owned
/// service pair, applyGrammarEdit / computeGrammarDelta for edits,
/// formatOkLine + parseResponseLine — each in its own span under the op.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Reference.h"
#include "Workloads.h"

#include "grammar/GrammarEdit.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "service/ContextCache.h"
#include "service/Manifest.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace lalr;

namespace perfbench {

namespace {

/// A request with its expected reply body resolved from the reference.
struct Planned {
  const ServeRequest *Q;
  std::string Expect;
};

std::vector<Planned> plan(const std::vector<ServeRequest> &List,
                          const ReferenceMap &Ref, RunResult &Res) {
  std::vector<Planned> Out;
  for (const ServeRequest &Q : List) {
    std::string E = expected(Ref, Q.RefKey, Res);
    if (Q.Kind == ReqKind::Parse)
      E = "parse " + Q.Grammar + " lr " + E + " tokens=" +
          std::to_string(Q.Tokens);
    Out.push_back({&Q, std::move(E)});
  }
  return Out;
}

/// Checks one reply against the reference answer.
void checkReply(const Planned &P, bool Sent, const WireResponse &W,
                const std::string &Error, RunResult &Res) {
  const std::string &Line = P.Q->Line;
  if (!Sent) {
    Res.wrong("transport failure on '" + Line + "': " + Error);
    return;
  }
  if (!W.Ok) {
    Res.wrong("'" + Line + "' answered err " + W.Code + ": " + W.Message);
    return;
  }
  bool Match = P.Q->Kind == ReqKind::Parse
                   ? W.Body.compare(0, P.Expect.size(), P.Expect) == 0 &&
                         (W.Body.size() == P.Expect.size() ||
                          W.Body[P.Expect.size()] == ' ')
                   : W.Body == P.Expect;
  if (!Match)
    Res.wrong("'" + Line.substr(0, 80) + "' answered '" + W.Body.substr(0, 80) +
              "', expected '" + P.Expect.substr(0, 80) + "'");
}

/// A loopback server plus its port.
struct Server {
  std::unique_ptr<NetServer> S;
  uint16_t Port = 0;
};

Server startServer() {
  Server Out;
  Out.S = std::make_unique<NetServer>(NetServer::Options{});
  std::string Error;
  if (!Out.S->start(Error))
    throw std::runtime_error("server start failed: " + Error);
  Out.Port = Out.S->port();
  return Out;
}

std::unique_ptr<NetClient> connect(uint16_t Port, uint64_t Seed) {
  NetClient::Options CO;
  CO.Port = Port;
  CO.JitterSeed = Seed + 1;
  return std::make_unique<NetClient>(CO);
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

/// The benchmark-owned services the traced run replays requests on, and
/// the parsed grammar versions edits are applied to.
struct Replay {
  BuildService Build;
  ParseService Parse{Build};
  std::map<std::string, std::vector<Grammar>> Versions;
};

/// Per-client trace data.
struct ClientTrace {
  SpanRecorder Rec;
  std::map<std::string, std::vector<double>> LayerUs;
  std::vector<double> ResidualUs;
  std::vector<double> RoundtripUs;
  double Tokens = 0, ParseUs = 0;
  std::map<std::string, uint64_t> Edits; ///< by class name
};

std::string spanClass(std::string_view Class) {
  std::string S(Class);
  for (char &C : S)
    if (C == '-')
      C = '_';
  return S;
}

/// Span names must outlive the recorder; these are the dynamic ones.
const char *buildSpanName(const std::string &AfterEdit) {
  if (AfterEdit == "conflict-local")
    return "service.build_after_edit_conflict_local";
  if (AfterEdit == "production-local")
    return "service.build_after_edit_production_local";
  if (AfterEdit == "structural")
    return "service.build_after_edit_structural";
  return "service.build_hit";
}

/// Replays \p P's layers after its round trip (already recorded as a
/// child of \p Root) and records the per-op derived values.
void replayLayers(const Planned &P, const ServeInputs &In, bool EditWorkload,
                  const WireResponse &W, std::map<std::string, int> &At,
                  Replay &Rp, ClientTrace &T, int32_t Root, uint64_t Op,
                  double RoundtripUs) {
  const ServeRequest &Q = *P.Q;
  SpanRecorder &Rec = T.Rec;
  auto Timed = [&](const char *Name, auto &&Fn) {
    int32_t S = Rec.begin(Name, Root, Op);
    Fn();
    Rec.end(S);
    double Us = Rec.spans()[S].durUs();
    T.LayerUs[Name].push_back(Us);
    return Us;
  };

  std::optional<std::vector<ManifestEntry>> Entries;
  double Layers = Timed("service.manifest_parse", [&] {
    std::string Error;
    Entries = parseManifest(Q.Line, Error);
  });
  const ServedGrammar &SG = *In.grammar(Q.Grammar);

  if (Q.Kind == ReqKind::Edit) {
    int Before = At[Q.Grammar];
    const Grammar &G = Rp.Versions[Q.Grammar][Before];
    std::optional<Grammar> Edited;
    Timed("grammar.edit_apply", [&] {
      DiagnosticEngine Diags;
      Edited = applyGrammarEdit(G, (*Entries)[0].Edit, Diags);
    });
    GrammarEditClass Class = GrammarEditClass::Identical;
    Timed("grammar.edit_classify",
          [&] { Class = computeGrammarDelta(G, *Edited).Class; });
    ++T.Edits[grammarEditClassName(Class)];
    At[Q.Grammar] = Q.Version;
    return;
  }

  // The source the server resolves: the corpus text on serve-hot, the
  // working copy of the version in effect on serve-edit.
  const std::string &Source = SG.Versions[EditWorkload ? Q.Version : 0];
  Layers += Timed("service.source_hash", [&] {
    uint64_t H = hashGrammarSource(Source);
    asm volatile("" : : "g"(&H) : "memory"); // keep the inline hash
  });
  ManifestEntry &E = (*Entries)[0];
  if (Q.Kind == ReqKind::Build) {
    ServiceRequest R = E.Request;
    if (EditWorkload)
      R.Source = Source;
    Layers += Timed(buildSpanName(Q.AfterEdit),
                    [&] { (void)Rp.Build.runBatch({&R, 1}); });
  } else {
    ParseRequest PR;
    PR.GrammarName = Q.Grammar;
    if (EditWorkload)
      PR.Source = Source;
    PR.Options = E.Request.Options;
    PR.Driver = E.Driver;
    PR.Input = E.ParseInput;
    ParseResponse PRsp;
    double Us = Timed("parse.run", [&] { PRsp = Rp.Parse.run(PR); });
    Layers += Us;
    T.Tokens += PRsp.Tokens;
    T.ParseUs += Us;
  }
  Layers += Timed("net.render", [&] {
    std::string Line = formatOkLine(W.Body);
    WireResponse Back;
    std::string Error;
    (void)parseResponseLine(Line, Back, Error);
  });
  T.ResidualUs.push_back(RoundtripUs - Layers);
}

/// Warms the replay services with the warm pass (untimed).
void warmReplay(const ServeInputs &In, bool EditWorkload, Replay &Rp) {
  for (const ServedGrammar &SG : In.Grammars)
    for (const std::string &Text : SG.Versions)
      Rp.Versions[SG.Name].push_back(parseGrammarText(Text, SG.Name));
  for (const ServeRequest &Q : In.Warm) {
    const std::string &Source =
        In.grammar(Q.Grammar)->Versions[EditWorkload ? Q.Version : 0];
    if (Q.Kind == ReqKind::Build) {
      ServiceRequest R;
      R.GrammarName = Q.Grammar;
      if (EditWorkload)
        R.Source = Source;
      (void)Rp.Build.runBatch({&R, 1});
    } else if (Q.Kind == ReqKind::Parse) {
      ParseRequest PR;
      PR.GrammarName = Q.Grammar;
      if (EditWorkload)
        PR.Source = Source;
      PR.Input = In.grammar(Q.Grammar)->Sentences[Q.Sentence];
      (void)Rp.Parse.run(PR);
    }
  }
}

//===----------------------------------------------------------------------===//
// Load phases
//===----------------------------------------------------------------------===//

/// Throughput is counted per slice of the timed region, latency
/// statistics per window of consecutive ops of one connection (enough for
/// a p99 with ten beyond it).
constexpr int64_t SliceNs = 250'000'000;
constexpr size_t WindowOps = 5000;

struct Client {
  std::unique_ptr<NetClient> C;
  std::vector<Planned> List;
  size_t Cursor = 0;
  std::map<std::string, int> At; ///< serve-edit: version per owned grammar
  RunResult Res;
  LatencyWindows Lat{WindowOps};   ///< untraced ops
  std::vector<uint32_t> SliceOps; ///< untraced ops completed per slice
  ClientTrace Trace;
};

struct Counters {
  NetStats Net;
  ServiceStats Build;
  ParseStats Parse;
};

Counters snapshot(NetServer &S) {
  return {S.stats(), S.buildService().stats(), S.parseService().stats()};
}

/// Runs every client closed-loop for \p Seconds. Returns each slice's
/// ops completed per second.
std::vector<double> runPhase(std::vector<Client> &Clients, double Seconds,
                             bool Traced, const ServeInputs &In,
                             bool EditWorkload, Replay *Rp) {
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  size_t Slices =
      std::max<size_t>(1, static_cast<size_t>(Seconds * 1e9 / SliceNs));
  for (Client &Cl : Clients)
    Cl.SliceOps.assign(Slices, 0);
  int64_t T0 = nowNs();
  for (size_t CI = 0; CI < Clients.size(); ++CI)
    Threads.emplace_back([&, CI] {
      Client &Cl = Clients[CI];
      try {
        uint64_t OpBase = static_cast<uint64_t>(CI) << 40;
        while (!Stop.load(std::memory_order_relaxed) &&
               !(Traced && Cl.Trace.Rec.full())) {
          const Planned &P = Cl.List[Cl.Cursor];
          Cl.Cursor = (Cl.Cursor + 1) % Cl.List.size();
          WireResponse W;
          std::string Error;
          uint64_t Op = OpBase + Cl.Res.Attempted;
          int32_t Root = -1;
          if (Traced)
            Root = Cl.Trace.Rec.begin("serve.op", -1, Op);
          int64_t A = nowNs();
          bool Sent = Cl.C->request(P.Q->Line, W, Error);
          int64_t B = nowNs();
          double Us = (B - A) / 1e3;
          checkReply(P, Sent, W, Error, Cl.Res);
          if (Traced) {
            Cl.Trace.Rec.add("net.roundtrip", A, B, Root, Op);
            Cl.Trace.RoundtripUs.push_back(Us);
            if (Sent && W.Ok)
              replayLayers(P, In, EditWorkload, W, Cl.At, *Rp, Cl.Trace, Root,
                           Op, Us);
            Cl.Trace.Rec.end(Root);
          } else {
            Cl.Lat.add(Us);
            size_t Slice = static_cast<size_t>((B - T0) / SliceNs);
            if (Slice < Cl.SliceOps.size())
              ++Cl.SliceOps[Slice];
            if (P.Q->Kind == ReqKind::Edit)
              Cl.At[P.Q->Grammar] = P.Q->Version;
          }
          Cl.Res.endOp();
        }
      } catch (const std::exception &E) {
        Cl.Res.wrong(std::string("client failed: ") + E.what());
        Cl.Res.endOp();
      }
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  std::vector<double> Rates(Slices, 0);
  for (const Client &Cl : Clients)
    for (size_t I = 0; I < Slices; ++I)
      Rates[I] += Cl.SliceOps[I] / (SliceNs / 1e9);
  return Rates;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

} // namespace

RunResult runServe(const Options &O, const ReferenceMap &Ref, double Seconds) {
  const bool EditWorkload = O.W == Workload::ServeEdit;
  RunResult Res;
  checkVerified(Ref, Res);
  ServeInputs In =
      EditWorkload ? serveEditInputs(O.Seed) : serveHotInputs(O.Seed);
  std::vector<Planned> Warm = plan(In.Warm, Ref, Res);

  // Set-up: server start + warm pass over one connection, SetupRepeats
  // times; the last server is the one measured.
  std::vector<double> SetupS;
  Server Srv;
  for (int I = 0; I < SetupRepeats; ++I) {
    Srv = Server{};
    int64_t T0 = nowNs();
    Srv = startServer();
    std::unique_ptr<NetClient> C = connect(Srv.Port, O.Seed);
    std::vector<std::pair<bool, WireResponse>> Replies;
    std::vector<std::string> Errors;
    for (const Planned &P : Warm) {
      WireResponse W;
      std::string Error;
      bool Sent = C->request(P.Q->Line, W, Error);
      Replies.push_back({Sent, std::move(W)});
      Errors.push_back(std::move(Error));
    }
    SetupS.push_back((nowNs() - T0) / 1e9);
    for (size_t J = 0; J < Warm.size(); ++J) {
      checkReply(Warm[J], Replies[J].first, Replies[J].second, Errors[J], Res);
      Res.endOp();
    }
  }

  std::vector<Client> Clients(In.Client.size());
  for (size_t CI = 0; CI < Clients.size(); ++CI) {
    Clients[CI].C = connect(Srv.Port, O.Seed * 16 + CI);
    Clients[CI].List = plan(In.Client[CI], Ref, Res);
  }

  double Untimed = O.Trace ? Seconds * UntracedShare : Seconds;
  std::vector<double> Rates =
      runPhase(Clients, Untimed, false, In, EditWorkload, nullptr);
  double PeakRss = peakRssMb();
  std::vector<LatencyWindows> Lat;
  for (Client &Cl : Clients)
    Lat.push_back(std::move(Cl.Lat));

  if (!O.Trace) {
    for (Client &Cl : Clients)
      Res.merge(Cl.Res);
    Res.set("peak_rss_mb", PeakRss, "MB");
    setLatencyMetrics(Res, std::move(Lat), std::move(Rates));
    setSetupMetric(Res, SetupS);
    return Res;
  }

  Replay Rp;
  warmReplay(In, EditWorkload, Rp);
  Counters Before = snapshot(*Srv.S);
  runPhase(Clients, Seconds - Untimed, true, In, EditWorkload, &Rp);
  Counters After = snapshot(*Srv.S);

  ClientTrace All;
  std::vector<Span> Spans;
  for (Client &Cl : Clients) {
    Res.merge(Cl.Res);
    ClientTrace &T = Cl.Trace;
    for (auto &[Name, V] : T.LayerUs)
      All.LayerUs[Name].insert(All.LayerUs[Name].end(), V.begin(), V.end());
    All.ResidualUs.insert(All.ResidualUs.end(), T.ResidualUs.begin(),
                          T.ResidualUs.end());
    All.RoundtripUs.insert(All.RoundtripUs.end(), T.RoundtripUs.begin(),
                           T.RoundtripUs.end());
    All.Tokens += T.Tokens;
    All.ParseUs += T.ParseUs;
    for (auto &[C, N] : T.Edits)
      All.Edits[C] += N;
    int32_t Offset = static_cast<int32_t>(Spans.size());
    for (Span S : T.Rec.spans()) {
      if (S.Parent >= 0)
        S.Parent += Offset;
      Spans.push_back(S);
    }
  }

  for (auto &[Name, V] : All.LayerUs)
    Res.set(std::string(Name) + "_us", median(V), "us");
  Res.set("net.roundtrip_us", median(All.RoundtripUs), "us");
  Res.set("net.residual_us", median(All.ResidualUs), "us");
  Res.set("parse.tokens_per_us", ratio(All.Tokens, All.ParseUs), "tokens/us");

  const ServiceStats &B0 = Before.Build, &B1 = After.Build;
  Res.set("service.cache_hit_ratio",
          ratio(B1.CacheHits - B0.CacheHits,
                B1.CacheHits - B0.CacheHits + B1.CacheMisses - B0.CacheMisses),
          "ratio");
  double Patched = B1.CachePatched - B0.CachePatched;
  double SourceInv = B1.CacheInvalidationsSource - B0.CacheInvalidationsSource;
  if (EditWorkload)
    Res.set("service.cache_patch_ratio", ratio(Patched, Patched + SourceInv),
            "ratio");
  const ParseStats &P0 = Before.Parse, &P1 = After.Parse;
  double Hits = P1.TableHits - P0.TableHits;
  Res.set("parse.table_hit_ratio",
          ratio(Hits, Hits + P1.TableBuilds - P0.TableBuilds), "ratio");
  double Reqs = After.Net.Requests - Before.Net.Requests;
  Res.set("net.coalesced_ratio",
          ratio(After.Net.Coalesced - Before.Net.Coalesced, Reqs), "ratio");
  Res.set("net.shed_ratio", ratio(After.Net.Shed - Before.Net.Shed, Reqs),
          "ratio");
  if (EditWorkload)
    for (const char *C : {"conflict-local", "production-local", "structural"})
      Res.set("grammar.edits_" + spanClass(C), All.Edits[C], "count");

  std::vector<double> UntracedP50s;
  for (LatencyWindows &L : Lat) {
    L.finish();
    UntracedP50s.insert(UntracedP50s.end(), L.P50s.begin(), L.P50s.end());
  }
  Res.set("trace.overhead_ratio",
          median(All.RoundtripUs) / median(std::move(UntracedP50s)), "ratio");
  if (!O.SpansDir.empty())
    writeSpans(O.SpansDir + "/spans-" + workloadName(O.W) + ".tsv", Spans);
  return Res;
}

} // namespace perfbench
