//===- perfbench/src/Reference.h - Expected answers -------------*- C++ -*-===//
///
/// \file
/// The checks' side of the benchmark. `lalr_perfbench reference` runs in
/// its own process before the measuring run (so its memory and time stay
/// out of the measured ones) and writes one `key<TAB>value` line per
/// expected answer:
///
///   digest|<g>          FNV-64 of the serialized YACC-propagation table
///                       (TableKind::YaccLalr) of cold-build grammar g
///   build|<g>|<v>       the `build` response body, with states= and
///                       conflicts= taken from the YACC-kind table of
///                       version v of g
///   parse|<g>|<v>|<i>   `accepted` / `rejected`: the Earley verdict for
///                       sentence i of g's pool against version v
///   edit|<g>|<k>|do     the `edit` response body for pair k (undo alike)
///   verify|<g>|<v>      `ok` when the ArtifactVerifier accepts the LALR(1)
///                       build of version v of g
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "Common.h"

#include <string>

namespace perfbench {

/// Computes the expected answers for workload \p W's inputs under \p Seed
/// and writes them to \p Path. Returns false (with \p Error) when an
/// input cannot be built.
bool writeReference(Workload W, uint64_t Seed, const std::string &Path,
                    std::string &Error);

bool loadReference(const std::string &Path, ReferenceMap &Out,
                   std::string &Error);

/// Looks up \p Key; a missing key is a failed check, reported through
/// \p R, and yields an empty string.
std::string expected(const ReferenceMap &Ref, const std::string &Key,
                     RunResult &R);

/// Checks the verify|... entries (ArtifactVerifier verdicts for every
/// distinct grammar version): each must read `ok`.
void checkVerified(const ReferenceMap &Ref, RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
