//===- perfbench/src/Workloads.h - The benchmark's workloads ------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the ASTRAL benchmark. Each builds its inputs from
/// the seed alone (the family generator, the examples/ programs, seeded
/// edits), drives the analyzer through its public seams — AnalysisSession
/// phases, AnalysisSession::analyzeBatch, service::Server/service::Client —
/// for a fixed time, checks every verdict against a known answer (Gate.h),
/// and reports either the end-to-end metrics (untraced run) or the
/// per-layer metrics (traced run). Analyzer options are the defaults plus
/// each input's environment spec; the benchmark sets no dispatch, memo or
/// closure option, so it keeps measuring whatever the defaults become.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_PERFBENCH_WORKLOADS_H
#define ASTRAL_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Not measured by this workload (or its counter no longer exists); the
  /// value is then 0 and the name is listed as absent.
  bool Absent = false;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Diagnostics for stderr (failed checks, absent metrics, trace path).
  std::vector<std::string> Notes;
};

const std::vector<std::string> &workloadNames();

/// Runs one workload. Throws std::runtime_error when it cannot be set up
/// (unknown name, missing examples/ or goldens, socket failure).
RunResult runWorkload(const RunConfig &C);

} // namespace perfbench

#endif // ASTRAL_PERFBENCH_WORKLOADS_H
