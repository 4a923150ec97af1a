//===- perfbench/src/main.cpp - The benchmark entry point -----------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload from the checkout root and prints, as the last line of
/// stdout, {"correct":..,"attempted":..,"failed":..,"metrics":{name:
/// {"value":..,"unit":..},...}}: the end-to-end metrics with --trace 0, the
/// per-layer metrics with --trace 1 (which also writes a Chrome trace under
/// .bench_build/). Diagnostics go to stderr. Exits 1 without a result when
/// the workload cannot be set up.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

namespace {

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload <");
  const char *Sep = "";
  for (const std::string &W : perfbench::workloadNames()) {
    std::fprintf(stderr, "%s%s", Sep, W.c_str());
    Sep = "|";
  }
  std::fprintf(stderr,
               "> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n");
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  perfbench::RunConfig C;
  try {
    for (int I = 1; I < argc; ++I) {
      std::string A = argv[I];
      if (I + 1 >= argc)
        return usage();
      std::string V = argv[++I];
      if (A == "--workload")
        C.Workload = V;
      else if (A == "--seed")
        C.Seed = std::stoull(V);
      else if (A == "--seconds")
        C.Seconds = std::stod(V);
      else if (A == "--trace")
        C.Trace = std::stoi(V) != 0;
      else
        return usage();
    }
  } catch (const std::exception &) {
    return usage();
  }
  if (C.Workload.empty() || !(C.Seconds > 0))
    return usage();

  perfbench::RunResult R;
  try {
    R = perfbench::runWorkload(C);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s: %s\n", C.Workload.c_str(), E.what());
    return 1;
  }

  for (const std::string &N : R.Notes)
    std::fprintf(stderr, "perfbench: %s: %s\n", C.Workload.c_str(), N.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  const char *Sep = "";
  for (const perfbench::Metric &M : R.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                M.Name.c_str(), M.Value, M.Unit.c_str());
    Sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
