//===- perfbench/src/Gate.h - The benchmark's correctness gate ----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Known answers every benchmark operation is checked against. Each check
/// returns the empty string when the output is right and a one-line reason
/// otherwise; a non-empty reason counts the operation as failed.
///
///  - A family member generated without injected bugs is free of run-time
///    errors by construction (Sect. 3.1), so any alarm on it is false.
///  - A member generated with N injected bugs must raise at least N
///    division-by-zero alarms: a genuine bug is never masked.
///  - A daemon response for an unedited input must equal the one-shot
///    report after the golden suite's normalization of "analysis_seconds"
///    and "file": for an example, its golden (tests/golden/<name>.expected
///    .json); for a member, the report of a one-shot session on the same
///    source.
///  - A response for an edited input (content changed, meaning unchanged)
///    must carry the expected report's alarms and ranges.
///  - An error response is always a failure.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_PERFBENCH_GATE_H
#define ASTRAL_PERFBENCH_GATE_H

#include "analyzer/Analyzer.h"
#include "service/Json.h"

#include <string>

namespace perfbench {

/// Checks one family analysis. \p InjectedBugs is the generator's
/// GeneratorConfig::InjectedBugs for the member (0 = a clean member).
std::string checkFamilyVerdict(const astral::AnalysisResult &R,
                               unsigned InjectedBugs);

/// Alarms on a member generated without injected bugs (all of them false).
size_t falseAlarms(const astral::AnalysisResult &R, unsigned InjectedBugs);

/// The golden suite's normalization (tests/golden/run_golden.cmake): the
/// wall-clock "analysis_seconds" and the input "file" fields are masked.
std::string normalizeReport(const std::string &Report);

/// What a daemon analyze response must say about one input.
struct DaemonExpectation {
  /// The normalized one-shot report of the unedited input.
  std::string Golden;
};

/// Checks one analyze response (the parsed response line). \p Edited marks
/// a request whose source carried a meaning-preserving edit.
std::string checkDaemonResponse(const astral::service::JsonValue &Resp,
                                const DaemonExpectation &E, bool Edited);

} // namespace perfbench

#endif // ASTRAL_PERFBENCH_GATE_H
