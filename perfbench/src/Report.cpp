//===- perfbench/src/Report.cpp - Statistics, spans, metric sink ----------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::ColdBuild:
    return "cold-build";
  case Workload::ServeHot:
    return "serve-hot";
  case Workload::ServeEdit:
    return "serve-edit";
  }
  return "unknown";
}

bool workloadByName(std::string_view Name, Workload &Out) {
  for (Workload W :
       {Workload::ColdBuild, Workload::ServeHot, Workload::ServeEdit})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double median(std::vector<double> V) { return quantile(V, 0.5); }

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  for (double P : {90.0, 99.0, 99.9}) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100 * V.size()));
    if (V.size() < Rank + 10)
      break;
    T.Percentile = P;
    T.Beyond = V.size() - Rank;
  }
  if (T.Percentile == 0) { // fewer than 20 samples: report the maximum
    T.Percentile = 100;
    T.Beyond = 0;
  }
  T.Value = quantile(V, T.Percentile / 100);
  return T;
}

std::vector<double> selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<int32_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[Spans[I].Parent].push_back(static_cast<int32_t>(I));
  std::vector<double> Self(Spans.size());
  std::vector<std::pair<int64_t, int64_t>> Iv;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Iv.clear();
    for (int32_t C : Children[I])
      Iv.push_back({std::max(Spans[C].StartNs, S.StartNs),
                    std::min(Spans[C].EndNs, S.EndNs)});
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, Lo = 0, Hi = -1;
    for (auto [A, B] : Iv) {
      if (B <= A)
        continue;
      if (A > Hi) {
        Covered += Hi - Lo;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    if (Hi > Lo)
      Covered += Hi - Lo;
    Self[I] = (S.EndNs - S.StartNs - Covered) / 1e3;
  }
  return Self;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<double> Self = selfTimesUs(Spans);
  std::fprintf(F, "index\top\tparent\tname\tstart_ns\tend_ns\tdur_us\t"
                  "self_us\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu\t%llu\t%d\t%s\t%lld\t%lld\t%.3f\t%.3f\n", I,
                 static_cast<unsigned long long>(S.Op), S.Parent, S.Name,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.durUs(), Self[I]);
  }
  return std::fclose(F) == 0;
}

void RunResult::wrong(const std::string &What) {
  OpWrong = true;
  if (++WrongAnswers <= 5)
    note("wrong answer: " + What);
}

void RunResult::merge(const RunResult &O) {
  Attempted += O.Attempted;
  Failed += O.Failed;
  WrongAnswers += O.WrongAnswers;
  Notes.insert(Notes.end(), O.Notes.begin(), O.Notes.end());
}

void LatencyWindows::reduce() {
  P50s.push_back(quantile(Buf, 0.5));
  Last = tailOf(std::move(Buf));
  Tails.push_back(Last.Value);
  Buf.clear();
  Buf.reserve(WindowOps);
}

void setLatencyMetrics(RunResult &R, std::vector<LatencyWindows> PerThread,
                       std::vector<double> WindowRates) {
  std::vector<double> P50s, Tails;
  Tail Shown;
  size_t Ops = 0;
  for (LatencyWindows &L : PerThread) {
    L.finish();
    P50s.insert(P50s.end(), L.P50s.begin(), L.P50s.end());
    Tails.insert(Tails.end(), L.Tails.begin(), L.Tails.end());
    Shown = L.Last;
    Ops += L.Ops;
  }
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "op_p50_us / op_tail_us are the first quartile over %zu "
                "windows of each window's p50 / p%g (%zu ops, %zu beyond the "
                "tail); ops_per_s is the third quartile over %zu windows; "
                "%zu ops in all",
                Tails.size(), Shown.Percentile, Shown.Samples, Shown.Beyond,
                WindowRates.size(), Ops);
  R.note(Buf);
  R.set("op_p50_us", quantile(P50s, 0.25), "us");
  R.set("op_tail_us", quantile(Tails, 0.25), "us");
  R.set("ops_per_s", quantile(WindowRates, 0.75), "1/s");
}

double peakRssMb() {
  // VmHWM is the high-water mark of this program image. getrusage's
  // ru_maxrss is not: Linux carries the parent's peak across fork+exec,
  // so a parent process larger than the program would read as its peak.
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
        break;
    std::fclose(F);
    if (Kb >= 0)
      return Kb / 1024.0;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // KiB on Linux
}

void setSetupMetric(RunResult &R, std::vector<double> SetupSeconds) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf),
                "setup_s is the first quartile of %zu set-ups",
                SetupSeconds.size());
  R.note(Buf);
  R.set("setup_s", quantile(SetupSeconds, 0.25), "s");
}

uint64_t fnv64(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace perfbench
