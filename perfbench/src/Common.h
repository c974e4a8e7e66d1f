//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Options, clocks, sample statistics, the in-memory span recorder and the
/// metric sink shared by the three workloads. Nothing here calls into the
/// library; the workload files do.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

enum class Workload { ColdBuild, ServeHot, ServeEdit };

const char *workloadName(Workload W);
bool workloadByName(std::string_view Name, Workload &Out);

struct Options {
  Workload W = Workload::ColdBuild;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansDir; ///< traced run: where the spans are written
  std::string Commit = "unknown";
};

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Expected answers
//===----------------------------------------------------------------------===//

/// Key -> expected value, produced by `lalr_perfbench reference` and read
/// back by the measuring run (see Reference.h for the keys).
using ReferenceMap = std::unordered_map<std::string, std::string>;

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

/// Latency tail: the highest percentile of a fixed ladder (p90, p99,
/// p99.9) that still has at least ten samples beyond it.
struct Tail {
  double Percentile = 0; ///< e.g. 99.9
  double Value = 0;
  size_t Samples = 0;    ///< total samples the percentile was taken over
  size_t Beyond = 0;     ///< samples above the percentile's rank
};

/// Nearest-rank quantile of \p V (sorted in place). \p Q in [0, 1].
double quantile(std::vector<double> &V, double Q);
double median(std::vector<double> V);
Tail tailOf(std::vector<double> V);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed interval. Spans of one op share Op; Parent indexes the
/// recorder's span vector (-1 for an op's root span).
struct Span {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent;
  uint64_t Op;
  double durUs() const { return (EndNs - StartNs) / 1e3; }
};

/// In-memory span recorder, one per measuring thread (no locking). Spans
/// stay in memory until the run ends and are then written out together.
/// A traced phase stops once its recorder is full, which bounds the
/// memory and the dump a long run produces.
class SpanRecorder {
public:
  static constexpr size_t Capacity = 50000;
  bool full() const { return Spans.size() >= Capacity; }
  /// Opens a span and returns its index (close it with end()).
  int32_t begin(const char *Name, int32_t Parent, uint64_t Op) {
    Spans.push_back({Name, nowNs(), 0, Parent, Op});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void end(int32_t Idx) { Spans[Idx].EndNs = nowNs(); }
  /// Records a span whose bounds were measured elsewhere.
  int32_t add(const char *Name, int64_t StartNs, int64_t EndNs, int32_t Parent,
              uint64_t Op) {
    Spans.push_back({Name, StartNs, EndNs, Parent, Op});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  std::vector<Span> &spans() { return Spans; }

private:
  std::vector<Span> Spans;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Parallel to \p Spans.
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

/// Writes every span (one tab-separated line each, self time included).
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run produced. Metrics are keyed by the names in
/// BENCHMARK.json.
struct RunResult {
  uint64_t Attempted = 0; ///< ops attempted, set-up ops included
  uint64_t Failed = 0;    ///< ops that failed or gave a wrong answer
  uint64_t WrongAnswers = 0;
  std::map<std::string, Metric> Metrics;
  /// Extra human-readable lines printed before the result (tail
  /// percentile, first wrong answers, ...).
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a failed check; the op in progress counts as failed. The
  /// first few are kept for the notes.
  void wrong(const std::string &What);
  /// Closes the op in progress.
  void endOp() {
    ++Attempted;
    if (OpWrong)
      ++Failed;
    OpWrong = false;
  }
  /// Adds another thread's counts and notes.
  void merge(const RunResult &O);

private:
  bool OpWrong = false;
};

/// One measuring thread's op latencies, reduced as they arrive: every
/// WindowOps consecutive ops form a window that is cut down at once to
/// its median and its tail (the highest ladder percentile with ten
/// samples beyond it), so memory stays constant however many ops run.
/// A partial last window counts only when it is the only one.
class LatencyWindows {
public:
  explicit LatencyWindows(size_t WindowOps) : WindowOps(WindowOps) {
    Buf.reserve(WindowOps);
  }
  void add(double Us) {
    Buf.push_back(Us);
    ++Ops;
    if (Buf.size() == WindowOps)
      reduce();
  }
  void finish() {
    if (P50s.empty() && !Buf.empty())
      reduce();
  }

  std::vector<double> P50s, Tails;
  Tail Last; ///< the last reduced window's tail
  size_t Ops = 0;

private:
  void reduce();
  size_t WindowOps;
  std::vector<double> Buf;
};

/// Adds op_p50_us, op_tail_us and ops_per_s, and a note saying how they
/// were taken. The latency windows of the measuring threads give the
/// first quartile of their medians and of their tails; \p WindowRates,
/// the throughputs of the run's time windows, give their third quartile.
/// Shared hosts have spells of several seconds in which memory-bound code
/// runs up to twice as slow while a fixed arithmetic loop does not; the
/// quiet side of the windows stays put unless such a spell covers three
/// quarters of the run.
void setLatencyMetrics(RunResult &R, std::vector<LatencyWindows> PerThread,
                       std::vector<double> WindowRates);

/// Peak resident set of this process so far, MB.
double peakRssMb();

/// Set-ups per run.
inline constexpr int SetupRepeats = 9;

/// setup_s: the first quartile of the set-up times, seconds (the quiet
/// side, as for the latency windows).
void setSetupMetric(RunResult &R, std::vector<double> SetupSeconds);

/// FNV-1a over bytes: the table digest the checks compare.
uint64_t fnv64(const void *Data, size_t Size);
std::string hex64(uint64_t V);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
