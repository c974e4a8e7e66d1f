//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
///
/// \file
/// Two subcommands, both driven by perfbench/run.py:
///
///   lalr_perfbench reference --seed N --out DIR
///       computes the expected answers of all three workloads for seed N
///       into DIR/<workload>.ref (a separate process, so the reference
///       work stays out of the measured time and memory);
///
///   lalr_perfbench run --workload W --seed N --seconds S --trace 0|1
///                      --reference-dir DIR [--spans-dir DIR] [--commit C]
///       sets up, measures and checks workload W, prints a run stamp and
///       notes as `#` lines, and ends with one JSON result line. Exits 1
///       when any check failed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Reference.h"
#include "Workloads.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

/// The end-to-end metrics of an untraced run (BENCHMARK.json end_to_end).
const char *const EndToEnd[] = {"op_p50_us", "op_tail_us", "ops_per_s",
                                "ok_ratio",  "peak_rss_mb", "setup_s"};

/// The per-layer metrics of a traced run (BENCHMARK.json per_layer).
const char *const PerLayer[] = {
    "grammar.parse_us",
    "grammar.parse_mb_per_s",
    "grammar.analysis_us",
    "lr.lr0_us",
    "lr.lr0_states",
    "lalr.lookaheads_us",
    "lalr.nt_index_us",
    "lalr.relations_us",
    "lalr.solve_read_us",
    "lalr.solve_follow_us",
    "lalr.la_union_us",
    "lalr.relation_edges",
    "lalr.slab_bytes",
    "pipeline.table_fill_us",
    "lr.compress_us",
    "lr.compressed_entries",
    "pipeline.reconcile_ratio",
    "service.manifest_parse_us",
    "service.source_hash_us",
    "service.build_hit_us",
    "service.cache_hit_ratio",
    "parse.run_us",
    "parse.tokens_per_us",
    "parse.table_hit_ratio",
    "net.roundtrip_us",
    "net.render_us",
    "net.residual_us",
    "net.coalesced_ratio",
    "net.shed_ratio",
    "grammar.edit_apply_us",
    "grammar.edit_classify_us",
    "service.build_after_edit_conflict_local_us",
    "service.build_after_edit_production_local_us",
    "service.build_after_edit_structural_us",
    "service.cache_patch_ratio",
    "grammar.edits_conflict_local",
    "grammar.edits_production_local",
    "grammar.edits_structural",
    "trace.overhead_ratio",
};

int usage() {
  std::fprintf(stderr,
               "usage: lalr_perfbench reference --seed N --out DIR\n"
               "       lalr_perfbench run --workload cold-build|serve-hot|"
               "serve-edit --seed N --seconds S --trace 0|1\n"
               "                          --reference-dir DIR [--spans-dir DIR]"
               " [--commit C]\n");
  return 2;
}

bool optimisedBuild() {
  std::string_view T = PERFBENCH_BUILD_TYPE;
  return T == "Release" || T == "RelWithDebInfo" || T == "MinSizeRel";
}

RunResult runWorkload(const Options &O, const std::string &RefDir,
                      double Seconds) {
  ReferenceMap Ref;
  std::string Error;
  RunResult R;
  if (!loadReference(RefDir + "/" + workloadName(O.W) + ".ref", Ref, Error)) {
    R.wrong(Error);
    R.endOp();
    return R;
  }
  return O.W == Workload::ColdBuild ? runColdBuild(O, Ref, Seconds)
                                    : runServe(O, Ref, Seconds);
}

void printJsonString(const std::string &S) {
  std::putchar('"');
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::putchar('\\');
    std::putchar(C);
  }
  std::putchar('"');
}

int runCommand(Options &O, const std::string &RefDir) {
  long NProc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("# stamp: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"commit\": ",
              workloadName(O.W), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  printJsonString(O.Commit);
  std::printf(", \"build_type\": \"%s\", \"optimised\": %s, \"compiler\": "
              "\"%s\", \"nproc\": %ld}\n",
              PERFBENCH_BUILD_TYPE, optimisedBuild() ? "true" : "false",
              PERFBENCH_COMPILER, NProc);
  if (!optimisedBuild())
    std::printf("# WARNING: unoptimised build (build type '%s'); timings are "
                "not comparable\n",
                PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  RunResult R;
  const char *const *Wanted = O.Trace ? PerLayer : EndToEnd;
  size_t NWanted = O.Trace ? std::size(PerLayer) : std::size(EndToEnd);
  if (!O.Trace) {
    R = runWorkload(O, RefDir, O.Seconds);
  } else {
    // The workload's own traced run, then short traced runs of the other
    // workloads for the layers this one bypasses, so every traced run
    // reports every per-layer metric. Own metrics always win.
    R = runWorkload(O, RefDir, O.Seconds * 0.7);
    for (Workload W :
         {Workload::ColdBuild, Workload::ServeHot, Workload::ServeEdit}) {
      std::set<std::string> Missing;
      for (size_t I = 0; I < NWanted; ++I)
        if (!R.Metrics.count(Wanted[I]))
          Missing.insert(Wanted[I]);
      if (W == O.W || Missing.empty())
        continue;
      Options Fill = O;
      Fill.W = W;
      RunResult F = runWorkload(Fill, RefDir, O.Seconds * 0.15);
      R.merge(F);
      std::string Names;
      for (auto &[Name, M] : F.Metrics)
        if (Missing.count(Name)) {
          R.Metrics[Name] = M;
          Names += (Names.empty() ? "" : ", ") + Name;
        }
      if (!Names.empty())
        R.note(std::string("bypassed layers measured on a short ") +
               workloadName(W) + " run: " + Names);
    }
  }
  if (!O.Trace) {
    double Ok = R.Attempted
                    ? static_cast<double>(R.Attempted - R.Failed) / R.Attempted
                    : 0;
    R.set("ok_ratio", Ok, "ratio");
  }

  bool Correct = R.Failed == 0 && R.WrongAnswers == 0 && R.Attempted > 0;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "fail_ratio %.6g (%llu failed of %llu ops)",
                R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0,
                static_cast<unsigned long long>(R.Failed),
                static_cast<unsigned long long>(R.Attempted));
  R.note(Buf);
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool Complete = true;
  for (size_t I = 0; I < NWanted; ++I) {
    auto It = R.Metrics.find(Wanted[I]);
    if (It == R.Metrics.end()) {
      std::fprintf(stderr, "error: metric %s was not measured\n", Wanted[I]);
      Complete = false;
      continue;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Wanted[I], It->second.Value,
                It->second.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return Correct && Complete ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  Options O;
  std::string RefDir, OutDir;
  bool HaveWorkload = false;
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (A == "--workload")
      HaveWorkload = workloadByName(V, O.W);
    else if (A == "--seed")
      O.Seed = std::stoull(V);
    else if (A == "--seconds")
      O.Seconds = std::stod(V);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--reference-dir")
      RefDir = V;
    else if (A == "--out")
      OutDir = V;
    else if (A == "--spans-dir")
      O.SpansDir = V;
    else if (A == "--commit")
      O.Commit = V;
    else
      return usage();
  }

  try {
    if (Cmd == "reference") {
      if (OutDir.empty())
        return usage();
      for (Workload W :
           {Workload::ColdBuild, Workload::ServeHot, Workload::ServeEdit}) {
        std::string Error;
        if (!writeReference(W, O.Seed,
                            OutDir + "/" + workloadName(W) + ".ref", Error)) {
          std::fprintf(stderr, "reference: %s\n", Error.c_str());
          return 1;
        }
      }
      return 0;
    }
    if (Cmd == "run") {
      if (!HaveWorkload || RefDir.empty() || O.Seconds <= 0)
        return usage();
      return runCommand(O, RefDir);
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "lalr_perfbench: %s\n", E.what());
    return 1;
  }
  return usage();
}
