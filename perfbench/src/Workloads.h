//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
///
/// \file
/// Each workload sets itself up, checks every output against the
/// reference answers, and measures for \p Seconds. Untraced, it returns
/// the end-to-end metrics. Traced, it first measures untraced for 3/7 of
/// the time (the base of trace.overhead_ratio), then records spans around
/// the calls into each layer for the rest, returns the per-layer metrics
/// it measured, and writes its spans to `<SpansDir>/spans-<workload>.tsv`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

RunResult runColdBuild(const Options &O, const ReferenceMap &Ref,
                       double Seconds);
RunResult runServe(const Options &O, const ReferenceMap &Ref, double Seconds);

/// Fraction of a traced run spent measuring untraced.
inline constexpr double UntracedShare = 3.0 / 7.0;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
