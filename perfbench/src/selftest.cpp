//===- perfbench/src/selftest.cpp - The correctness gate must fire --------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that the benchmark's correctness gate (Gate.h) rejects wrong
/// answers, so a run that reports "correct" means something: expecting a
/// clean verdict on a member with injected bugs must fail, as must a golden
/// mismatch and an error response. Exits non-zero on the first miss.
///
//===----------------------------------------------------------------------===//

#include "Gate.h"

#include "BenchUtil.h"

#include <cstdio>
#include <string>

using namespace astral;
using astral::service::JsonValue;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", What);
    ++Failures;
  }
}

AnalysisResult analyzeMember(unsigned Lines, uint64_t Seed, unsigned Bugs) {
  codegen::GeneratorConfig G;
  G.TargetLines = Lines;
  G.Seed = Seed;
  G.InjectedBugs = Bugs;
  return benchutil::analyzeFamily(codegen::generateFamilyProgram(G));
}

JsonValue analyzeResponse(const std::string &Stdout) {
  JsonValue R = JsonValue::object();
  R["ok"] = JsonValue(true);
  R["stdout"] = JsonValue(Stdout);
  return R;
}

const char *Golden = R"({
  "file": "<input>",
  "source_lines": 20,
  "analysis_seconds": "<time>",
  "ranges": {
    "x": "[0, 10]"
  },
  "alarm_count": 1,
  "alarms": [
    {"kind": "division-by-zero", "line": 15, "definite": false, "message": "divisor may be zero"}
  ]
}
)";

} // namespace

int main() {
  using perfbench::checkDaemonResponse;
  using perfbench::checkFamilyVerdict;

  AnalysisResult Bugged = analyzeMember(400, 5, 2);
  expect(!checkFamilyVerdict(Bugged, 0).empty(),
         "a clean verdict expected on the bugged member registers a failure");
  expect(checkFamilyVerdict(Bugged, 2).empty(),
         "the bugged member raises its injected division-by-zero alarms");
  expect(perfbench::falseAlarms(Bugged, 2) == 0,
         "alarms on a bugged member are not false alarms");

  AnalysisResult Clean = analyzeMember(400, 9, 0);
  expect(checkFamilyVerdict(Clean, 0).empty(), "a clean member passes");
  expect(!checkFamilyVerdict(Clean, 2).empty(),
         "missing injected-bug alarms register a failure");

  perfbench::DaemonExpectation Example{perfbench::normalizeReport(Golden)};
  std::string Report = Golden;
  Report.replace(Report.find("\"<input>\""), 9, "\"examples/x.cpp\"");
  Report.replace(Report.find("\"<time>\""), 8, "0.0123");
  expect(checkDaemonResponse(analyzeResponse(Report), Example, false).empty(),
         "a report equal to its golden after normalization passes");

  std::string Drifted = Report;
  Drifted.replace(Drifted.find("[0, 10]"), 7, "[0, 11]");
  expect(!checkDaemonResponse(analyzeResponse(Drifted), Example, false).empty(),
         "a range drift against the golden registers a failure");
  expect(!checkDaemonResponse(analyzeResponse(Drifted), Example, true).empty(),
         "an edited report with a drifted range registers a failure");

  std::string Edited = Report;
  Edited.replace(Edited.find("20"), 2, "22");
  expect(!checkDaemonResponse(analyzeResponse(Edited), Example, false).empty(),
         "an unedited report must match its golden byte for byte");
  expect(checkDaemonResponse(analyzeResponse(Edited), Example, true).empty(),
         "an edit may change source_lines but not alarms or ranges");

  JsonValue Error = JsonValue::object();
  Error["ok"] = JsonValue(false);
  Error["error"] = JsonValue("injected");
  Error["error_kind"] = JsonValue("internal");
  expect(!checkDaemonResponse(Error, Example, false).empty(),
         "an error response registers a failure");

  if (Failures)
    return 1;
  std::printf("perfbench_selftest: all gate checks fire\n");
  return 0;
}
