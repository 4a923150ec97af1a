//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Why these workloads (the layer each one loads, and what it bypasses):
///
///  - family-1k: three ~1 kLOC family members at --jobs=1, runFrontend
///    through report — the paper's Fig. 2 use in the default configuration.
///    The iterator, transfer functions, domains and metering do nearly all
///    the work; the scheduler is idle and the service is bypassed. Its
///    traced run also analyzes one member at --jobs=min(4, cores), the only
///    place the within-file grains run on several workers (nested
///    parallelFor runs inline inside a batch).
///  - family-batch: 8 distinct ~500-line members through analyzeBatch at
///    --jobs=min(4, cores), one carrying injected bugs: file-level
///    parallelism and contention on shared state.
///  - daemon-edit-mix: an in-process serve daemon driven as a closed loop by
///    two clients over the examples/ programs and three small members; one
///    request in four carries a meaning-preserving edit (a cache miss, and
///    evictions once the edits outgrow the cache). Per-request costs —
///    protocol, content hashing, the artifact cache, session set-up — weigh
///    most here.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Gate.h"
#include "Trace.h"

#include "BenchUtil.h"
#include "analyzer/AnalysisSession.h"
#include "analyzer/CliOptions.h"
#include "codegen/FamilyGenerator.h"
#include "ir/ConstFold.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Preprocessor.h"
#include "lang/Sema.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Diagnostics.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace astral;
using astral::service::JsonValue;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, uint64_t>;
using Values = std::map<std::string, double>;

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// splitmix64: every input is derived from (seed, salt) through this.
uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}
uint64_t derive(uint64_t Seed, uint64_t Salt) { return mix(mix(Seed) ^ Salt); }

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Where the traced run writes its Chrome trace and the daemon binds its
/// socket, relative to the checkout root (the benchmark's build directory).
const std::string OutDir = ".bench_build";

unsigned parallelJobs() {
  unsigned H = std::thread::hardware_concurrency();
  return std::clamp(H, 1u, 4u);
}

/// Set-up is timed this many times per run, before the timed window, and
/// the median reported. The host's speed for short work swings by up to 2x
/// and stays put while a thread keeps running, so each sample is preceded by
/// a short untimed pause that lets the samples see different host states.
constexpr int SetupRepeats = 9;
constexpr std::chrono::milliseconds SetupPause{20};

/// Runs \p Make SetupRepeats times, appending each duration to \p Samples
/// and handing every result but the last to \p Discard; returns the last.
template <class MakeFn, class DiscardFn>
auto timedSetup(std::vector<double> &Samples, MakeFn Make, DiscardFn Discard) {
  decltype(Make()) Last;
  for (int I = 0; I < SetupRepeats; ++I) {
    if (I)
      Discard(std::move(Last));
    std::this_thread::sleep_for(SetupPause);
    Clock::time_point Start = Clock::now();
    Last = Make();
    Samples.push_back(since(Start));
  }
  return Last;
}
template <class MakeFn>
auto timedSetup(std::vector<double> &Samples, MakeFn Make) {
  return timedSetup(Samples, Make, [](auto &&) {});
}

/// The family-1k workload analyzes FamilyMembers distinct members of
/// FamilyLines lines each, in rounds. Members this small give about fifteen
/// analyses per 30-second run: one analysis of a 4 kLOC member takes 20 s, and its
/// time swings by +-20% with the host's memory contention, which a median
/// over one sample cannot absorb. Several members average out how much one
/// member's cost depends on the seed.
constexpr unsigned FamilyLines = 1000;
constexpr unsigned FamilyMembers = 3;

uint64_t sourceLines(const std::string &S) {
  return 1 + uint64_t(std::count(S.begin(), S.end(), '\n'));
}

//===----------------------------------------------------------------------===//
// Metric catalogs
//===----------------------------------------------------------------------===//

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},      {"analyze_s", "s"},
    {"kloc_per_s", "kLOC/s"}, {"peak_rss_mb", "MB"},
    {"peak_abstract_mb", "MB"}, {"ok_ratio", "ratio"},
};

/// Count metrics read from Statistics by name. A metric whose counters are
/// all missing from every analysis of the run is reported absent: the
/// counters of a deleted feature (the call memo, a parallel grain) vanish
/// without breaking the benchmark.
struct CountSpec {
  const char *Metric;
  const char *Counter;
};
const CountSpec CountMetrics[] = {
    {"fixpoint.iterations", "fixpoint.iterations"},
    {"fixpoint.widenings", "fixpoint.widenings"},
    {"iterator.calls_inlined", "iterator.calls_inlined"},
    {"transfer.assignments", "transfer.assignments"},
    {"partitioning.delayed_merges", "partitioning.delayed_merges"},
    {"octagon.closures_full", "analysis.octagon_closures_full"},
    {"octagon.closures_incremental", "analysis.octagon_closures_incremental"},
    {"octagon.assignments", "octagon.assignments"},
    {"octagon.guards", "octagon.guards"},
    {"dtree.assignments", "dtree.assignments"},
    {"ellipsoid.filter_steps", "ellipsoid.filter_steps"},
    {"linearization.refinements", "linearization.refinements"},
    {"parallel.sweep_groups_dispatched", "parallel.sweep_groups_dispatched"},
    {"parallel.partitions_dispatched", "parallel.partitions.dispatched"},
    {"parallel.calls_dispatched", "call_dispatch.dispatched"},
    {"concurrency.rounds", "concurrency.rounds"},
};

/// Per-layer span names (the public call the benchmark wraps) and the
/// metric each one's mean self time per call is reported as.
const std::pair<const char *, const char *> SpanMetrics[] = {
    {"runFrontend", "frontend.s"},
    {"Preprocessor::run", "lang.preprocess_s"},
    {"Parser::parseTranslationUnit", "lang.parse_s"},
    {"Sema::run", "lang.sema_s"},
    {"Lowering::run", "ir.lower_s"},
    {"layoutCells", "memory.layout_s"},
    {"buildPacks", "analyzer.packing_s"},
    {"runAbstractExecution", "analyzer.execution_s"},
    {"report", "analyzer.report_s"},
};

std::vector<MetricSpec> perLayerSpecs() {
  std::vector<MetricSpec> V;
  for (const auto &[Span, Metric] : SpanMetrics)
    V.push_back({Metric, "s"});
  for (const CountSpec &C : CountMetrics)
    V.push_back({C.Metric, "count"});
  const MetricSpec Rest[] = {
      {"iterator.call_memo_hit_ratio", "ratio"},
      {"iterator.call_memo_lookups", "count"},
      {"octagon.full_closure_ratio", "ratio"},
      {"octagon.closures", "count"},
      {"scheduler.within_file_speedup", "x"},
      {"scheduler.busy_ratio", "ratio"},
      {"scheduler.tail_s", "s"},
      {"service.overhead_ms_p50", "ms"},
      {"service.cold_ms_p50", "ms"},
      {"service.warm_ms_p50", "ms"},
      {"service.request_ms_p90", "ms"},
      {"service.requests_per_s", "1/s"},
      {"service.frontend_hit_ratio", "ratio"},
      {"service.frontend_lookups", "count"},
      {"service.packing_hit_ratio", "ratio"},
      {"service.packing_lookups", "count"},
      {"service.evictions", "count"},
      {"concurrency.request_ms_p50", "ms"},
      {"verdict.false_alarms", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  V.insert(V.end(), std::begin(Rest), std::end(Rest));
  return V;
}

/// Adds the count metrics (and the ratios derived from them, each with its
/// base) present in \p C to \p V.
void addCountMetrics(Values &V, const Counters &C) {
  auto Has = [&](const char *N) { return C.count(N) != 0; };
  auto Get = [&](const char *N) {
    auto It = C.find(N);
    return It == C.end() ? 0.0 : double(It->second);
  };
  for (const CountSpec &S : CountMetrics)
    if (Has(S.Counter))
      V[S.Metric] = Get(S.Counter);
  if (Has("iterator.call_memo_hits") || Has("iterator.call_memo_misses")) {
    double Lookups =
        Get("iterator.call_memo_hits") + Get("iterator.call_memo_misses");
    V["iterator.call_memo_lookups"] = Lookups;
    V["iterator.call_memo_hit_ratio"] =
        Lookups ? Get("iterator.call_memo_hits") / Lookups : 0;
  }
  if (Has("analysis.octagon_closures_full") ||
      Has("analysis.octagon_closures_incremental")) {
    double Closures = Get("analysis.octagon_closures_full") +
                      Get("analysis.octagon_closures_incremental");
    V["octagon.closures"] = Closures;
    V["octagon.full_closure_ratio"] =
        Closures ? Get("analysis.octagon_closures_full") / Closures : 0;
  }
}

void accumulate(Counters &Into, const Counters &From) {
  for (const auto &[K, N] : From)
    Into[K] += N;
}

/// The count metrics of \p C alone, for the repeatability check.
Values countMetricsOf(const Counters &C) {
  Values V;
  addCountMetrics(V, C);
  return V;
}

/// Emits \p Specs in order; names missing from \p V are absent.
void emit(RunResult &R, const std::vector<MetricSpec> &Specs, const Values &V) {
  std::string Absent;
  for (const MetricSpec &S : Specs) {
    auto It = V.find(S.Name);
    bool Missing = It == V.end();
    R.Metrics.push_back({S.Name, Missing ? 0.0 : It->second, S.Unit, Missing});
    if (Missing)
      Absent += std::string(Absent.empty() ? "" : ", ") + S.Name;
  }
  if (!Absent.empty())
    R.Notes.push_back("absent (reported as 0): " + Absent);
}

//===----------------------------------------------------------------------===//
// Shared measurement state
//===----------------------------------------------------------------------===//

/// What every workload records about its operations.
struct OpLog {
  std::vector<double> OpSeconds;
  /// Per distinct input, its units' times (family-1k and the daemon).
  std::map<size_t, std::vector<double>> InputSeconds;
  std::vector<double> TracedSeconds, UntracedSeconds;
  double Lines = 0; ///< Source lines of the successfully analyzed inputs.
  double WindowSeconds = 0;
  /// Peak abstract state of each distinct input, in MiB.
  std::vector<double> PeakAbstractMb;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t FalseAlarms = 0;
  std::vector<std::string> Failures;

  void check(const std::string &Why) {
    ++Attempted;
    if (Why.empty())
      return;
    ++Failed;
    if (Failures.size() < 5)
      Failures.push_back(Why);
  }
  void op(double Seconds, bool Traced) {
    OpSeconds.push_back(Seconds);
    (Traced ? TracedSeconds : UntracedSeconds).push_back(Seconds);
  }
};

RunResult finish(const RunConfig &C, const OpLog &L,
                 const std::vector<double> &SetupSeconds, Values PerLayer,
                 Tracer *T) {
  RunResult R;
  R.Attempted = L.Attempted;
  R.Failed = L.Failed;
  R.Correct = L.Failed == 0 && L.Attempted > 0;
  for (const std::string &F : L.Failures)
    R.Notes.push_back("failed: " + F);
  if (!C.Trace) {
    Values V;
    V["setup_s"] = median(SetupSeconds);
    // With several inputs analyzed repeatedly, each input's median weighs
    // equally, so the figure does not hinge on which input is the middle
    // one, or on how often the request stream picked each.
    std::vector<double> PerInput;
    for (const auto &[Input, Seconds] : L.InputSeconds)
      PerInput.push_back(median(Seconds));
    V["analyze_s"] = PerInput.empty() ? median(L.OpSeconds) : mean(PerInput);
    V["kloc_per_s"] = L.Lines / 1000.0 / L.WindowSeconds;
    V["peak_rss_mb"] = peakRssMb();
    V["peak_abstract_mb"] = mean(L.PeakAbstractMb);
    V["ok_ratio"] =
        L.Attempted ? double(L.Attempted - L.Failed) / double(L.Attempted) : 0;
    emit(R, std::vector<MetricSpec>(std::begin(EndToEnd), std::end(EndToEnd)),
         V);
    return R;
  }
  std::map<std::string, double> Self = T->selfSeconds();
  std::map<std::string, uint64_t> Calls = T->spanCounts();
  for (const auto &[Span, Metric] : SpanMetrics)
    if (Calls[Span])
      PerLayer[Metric] = Self[Span] / double(Calls[Span]);
  PerLayer["verdict.false_alarms"] = double(L.FalseAlarms);
  if (!L.TracedSeconds.empty() && !L.UntracedSeconds.empty())
    PerLayer["trace.overhead_ratio"] =
        median(L.TracedSeconds) / median(L.UntracedSeconds);
  uint64_t Spans = 0;
  for (const auto &[Name, N] : Calls)
    Spans += N;
  PerLayer["trace.spans"] = double(Spans);
  emit(R, perLayerSpecs(), PerLayer);

  std::filesystem::create_directories(OutDir);
  std::string Path =
      OutDir + "/trace-" + C.Workload + "-" + std::to_string(C.Seed) + ".json";
  std::ostringstream Other;
  Other << "{\"workload\":\"" << C.Workload << "\",\"seed\":" << C.Seed
        << ",\"absent\":[";
  bool First = true;
  for (const Metric &M : R.Metrics)
    if (M.Absent) {
      Other << (First ? "" : ",") << '"' << M.Name << '"';
      First = false;
    }
  Other << "]}";
  if (T->writeChromeJson(Path, Other.str()))
    R.Notes.push_back("trace written to " + Path);
  else
    R.Notes.push_back("could not write " + Path);
  return R;
}

//===----------------------------------------------------------------------===//
// Calls into the analyzer, each wrapped in a span
//===----------------------------------------------------------------------===//

/// One analysis through the AnalysisSession phases, runFrontend through
/// report; \p Seconds is the wall time between the two (the session's
/// teardown is not included).
AnalysisResult analyzePhased(const AnalysisInput &In, Tracer *T,
                             uint64_t Request, double &Seconds) {
  AnalysisSession S(In);
  Clock::time_point Start = Clock::now();
  Tracer::Scope Root(T, "analyze", "benchmark", 0, Request);
  bool Ok;
  {
    Tracer::Scope Sp(T, "runFrontend", "frontend", Root.id(), Request);
    Ok = S.runFrontend().Ok;
  }
  if (Ok) {
    {
      Tracer::Scope Sp(T, "layoutCells", "memory", Root.id(), Request);
      S.layoutCells();
    }
    {
      Tracer::Scope Sp(T, "buildPacks", "analyzer", Root.id(), Request);
      S.buildPacks();
    }
    {
      Tracer::Scope Sp(T, "runAbstractExecution", "analyzer", Root.id(),
                       Request);
      S.runAbstractExecution();
    }
  }
  AnalysisResult R;
  {
    Tracer::Scope Sp(T, "report", "analyzer", Root.id(), Request);
    R = S.report();
  }
  Seconds = since(Start);
  return R;
}

/// The frontend's public entry points called one by one on \p In's source
/// (traced run only): the sub-phase split runFrontend does not expose.
void traceFrontendEntryPoints(const AnalysisInput &In, Tracer &T,
                              uint64_t Request) {
  Tracer::Scope Root(&T, "frontendEntryPoints", "benchmark", 0, Request);
  DiagnosticsEngine Diags;
  FileProvider Provider = nullptr;
  if (!In.Headers.empty())
    Provider = [&In](const std::string &Name) -> std::optional<std::string> {
      auto It = In.Headers.find(Name);
      if (It == In.Headers.end())
        return std::nullopt;
      return It->second;
    };
  std::vector<Token> Toks;
  {
    Tracer::Scope Sp(&T, "Preprocessor::run", "lang", Root.id(), Request);
    Preprocessor PP(Diags, Provider);
    Toks = PP.run(In.Source, In.FileName);
  }
  AstContext Ast;
  bool Ok;
  {
    Tracer::Scope Sp(&T, "Parser::parseTranslationUnit", "lang", Root.id(),
                     Request);
    Parser Parse(std::move(Toks), Ast, Diags);
    Ok = Parse.parseTranslationUnit();
  }
  if (Ok) {
    Tracer::Scope Sp(&T, "Sema::run", "lang", Root.id(), Request);
    Sema TypeCheck(Ast, Diags);
    Ok = TypeCheck.run();
  }
  if (Ok) {
    Tracer::Scope Sp(&T, "Lowering::run", "ir", Root.id(), Request);
    ir::Lowering Lower(Ast, Diags);
    if (std::unique_ptr<ir::Program> P = Lower.run(In.Options.EntryFunction))
      ir::foldConstants(*P);
  }
}

//===----------------------------------------------------------------------===//
// family-1k
//===----------------------------------------------------------------------===//

RunResult runFamily(const RunConfig &C) {
  auto MakeMembers = [&] {
    std::vector<AnalysisInput> Members;
    for (unsigned M = 0; M < FamilyMembers; ++M) {
      codegen::GeneratorConfig G;
      G.TargetLines = FamilyLines;
      G.Seed = derive(C.Seed, M);
      AnalysisInput In =
          benchutil::familyInput(codegen::generateFamilyProgram(G));
      In.FileName = "member-" + std::to_string(G.Seed) + ".c";
      Members.push_back(std::move(In));
    }
    return Members;
  };
  std::vector<double> SetupSeconds;
  std::vector<AnalysisInput> Members = timedSetup(SetupSeconds, MakeMembers);

  std::unique_ptr<Tracer> T = C.Trace ? std::make_unique<Tracer>() : nullptr;
  OpLog L;
  // Per round: the members' counters summed, and member 0's execution time.
  std::vector<Counters> RoundCounts;
  std::vector<double> FirstMemberExec;
  // A round analyzes every member once. The traced run alternates untraced
  // and traced rounds, so the two give the tracing overhead on the same
  // inputs and, at --jobs=1, the count repeatability.
  const size_t MinRounds = C.Trace ? 2 : 1;
  Clock::time_point Start = Clock::now();
  for (size_t Round = 0;; ++Round) {
    Tracer *RoundT = C.Trace && Round % 2 == 1 ? T.get() : nullptr;
    Clock::time_point RoundStart = Clock::now();
    Counters Counts;
    for (size_t M = 0; M < Members.size(); ++M) {
      uint64_t Request = Round * Members.size() + M + 1;
      double Seconds = 0;
      AnalysisResult R = analyzePhased(Members[M], RoundT, Request, Seconds);
      L.op(Seconds, RoundT != nullptr);
      L.InputSeconds[M].push_back(Seconds);
      std::string Why = checkFamilyVerdict(R, 0);
      L.check(Why.empty() ? Why : Members[M].FileName + ": " + Why);
      L.FalseAlarms += falseAlarms(R, 0);
      L.Lines += double(R.SourceLines);
      if (Round == 0)
        L.PeakAbstractMb.push_back(R.PeakAbstractBytes / 1048576.0);
      if (M == 0)
        FirstMemberExec.push_back(R.AnalysisSeconds);
      accumulate(Counts, R.Stats.all());
      if (RoundT && Round == 1)
        traceFrontendEntryPoints(Members[M], *T, Request);
    }
    RoundCounts.push_back(std::move(Counts));
    if (Round + 1 >= MinRounds && since(Start) + since(RoundStart) > C.Seconds)
      break;
  }
  L.WindowSeconds = since(Start);
  if (!C.Trace)
    return finish(C, L, SetupSeconds, {}, nullptr);

  Values V;
  addCountMetrics(V, RoundCounts[0]);
  if (countMetricsOf(RoundCounts[0]) != countMetricsOf(RoundCounts[1]))
    L.check("per-layer counts differ between two --jobs=1 rounds");

  // Within-file parallelism: member 0 again at --jobs=min(4, cores), which
  // must beat --jobs=1 to pay. Its work meters count the parallel strategy
  // itself and are not repeatable, so only the parallel.* counters are
  // taken from these runs.
  const unsigned Jobs = parallelJobs();
  AnalysisInput Par = Members[0];
  Par.Options.Jobs = Jobs;
  std::vector<double> ParExec;
  Counters ParCounts;
  for (int I = 0; I < 2; ++I) {
    double Seconds = 0;
    AnalysisResult R = analyzePhased(Par, nullptr, 0, Seconds);
    L.check(checkFamilyVerdict(R, 0));
    ParExec.push_back(R.AnalysisSeconds);
    ParCounts = R.Stats.all();
  }
  if (Jobs > 1)
    V["scheduler.within_file_speedup"] =
        median(FirstMemberExec) / median(ParExec);
  Values ParV;
  addCountMetrics(ParV, ParCounts);
  for (const char *Name : {"parallel.sweep_groups_dispatched",
                           "parallel.partitions_dispatched",
                           "parallel.calls_dispatched"}) {
    V.erase(Name);
    if (ParV.count(Name))
      V[Name] = ParV[Name];
  }
  RunResult Res = finish(C, L, SetupSeconds, V, T.get());
  Res.Notes.push_back("parallel.* counts come from member 0 at --jobs=" +
                      std::to_string(Jobs) + ": not claimable");
  return Res;
}

//===----------------------------------------------------------------------===//
// family-batch
//===----------------------------------------------------------------------===//

constexpr unsigned BatchFiles = 8;
constexpr unsigned BatchMemberLines = 500;
constexpr unsigned BatchInjectedBugs = 2;

RunResult runBatch(const RunConfig &C) {
  const unsigned Jobs = parallelJobs();
  const unsigned Bugged = unsigned(C.Seed % BatchFiles);
  auto MakeInputs = [&] {
    std::vector<AnalysisInput> Inputs;
    for (unsigned F = 0; F < BatchFiles; ++F) {
      codegen::GeneratorConfig G;
      G.TargetLines = BatchMemberLines;
      G.Seed = derive(C.Seed, 100 + F);
      G.InjectedBugs = F == Bugged ? BatchInjectedBugs : 0;
      AnalysisInput In =
          benchutil::familyInput(codegen::generateFamilyProgram(G));
      In.FileName = "member-" + std::to_string(G.Seed) + ".c";
      In.Options.Jobs = Jobs;
      Inputs.push_back(std::move(In));
    }
    return Inputs;
  };
  std::vector<double> SetupSeconds;
  std::vector<AnalysisInput> Inputs = timedSetup(SetupSeconds, MakeInputs);

  std::unique_ptr<Tracer> T = C.Trace ? std::make_unique<Tracer>() : nullptr;
  OpLog L;
  Counters FirstBatch;
  std::vector<double> Busy, Tail;
  double FileSeconds = 0;
  const size_t MinOps = C.Trace ? 2 : 1;
  Clock::time_point Start = Clock::now();
  for (size_t Op = 0;; ++Op) {
    Tracer *OpT = C.Trace && Op % 2 == 1 ? T.get() : nullptr;
    Clock::time_point OpStart = Clock::now();
    std::vector<AnalysisResult> Results;
    {
      Tracer::Scope Sp(OpT, "analyzeBatch", "scheduler", 0, Op + 1);
      Results = AnalysisSession::analyzeBatch(Inputs);
    }
    double Seconds = since(OpStart);
    L.op(Seconds, OpT != nullptr);
    double Sum = 0;
    for (unsigned F = 0; F < Results.size(); ++F) {
      const AnalysisResult &R = Results[F];
      unsigned Bugs = F == Bugged ? BatchInjectedBugs : 0;
      std::string Why = checkFamilyVerdict(R, Bugs);
      L.check(Why.empty() ? Why : Inputs[F].FileName + ": " + Why);
      L.FalseAlarms += falseAlarms(R, Bugs);
      L.Lines += double(R.SourceLines);
      Sum += R.AnalysisSeconds;
      if (Op == 0) {
        L.PeakAbstractMb.push_back(R.PeakAbstractBytes / 1048576.0);
        accumulate(FirstBatch, R.Stats.all());
      }
    }
    FileSeconds += Sum;
    Busy.push_back(Sum / (Seconds * Jobs));
    Tail.push_back(Seconds - Sum / Jobs);
    if (Op + 1 >= MinOps && since(Start) + Seconds > C.Seconds)
      break;
  }
  L.WindowSeconds = since(Start);
  if (!C.Trace)
    return finish(C, L, SetupSeconds, {}, nullptr);

  Values V;
  addCountMetrics(V, FirstBatch);
  V["analyzer.execution_s"] = FileSeconds / double(L.Attempted);
  V["scheduler.busy_ratio"] = median(Busy);
  V["scheduler.tail_s"] = median(Tail);
  RunResult Res = finish(C, L, SetupSeconds, V, T.get());
  Res.Notes.push_back("counts are summed over the first batch's files at "
                      "--jobs=" + std::to_string(Jobs) + ": not claimable");
  return Res;
}

//===----------------------------------------------------------------------===//
// daemon-edit-mix
//===----------------------------------------------------------------------===//

const char *const Examples[] = {
    "quickstart",      "filter_verification",  "alarm_investigation",
    "flight_control",  "interp_table",         "rate_limiter_clocked",
    "partitioned_switch", "thread_handoff",    "thread_mode_table",
};
/// The daemon's working set is fixed — the examples and members from
/// generator seeds 1..DaemonMembers — and --seed drives the request stream
/// and the edits. A seed-dependent member set made the median latency swing
/// by 25% between seeds.
constexpr unsigned DaemonMembers = 3;
constexpr unsigned DaemonMemberLines = 150;
constexpr unsigned DaemonClients = 2;
constexpr unsigned DaemonJobs = 2;
/// Distinct edits per input: 12 inputs x 24 edits outgrow the daemon's
/// default 64-entry cache, so the edit stream evicts.
constexpr unsigned EditVariants = 24;

struct DaemonInput {
  std::string Path;
  std::string Source;
  std::map<std::string, std::string> Headers;
  /// The normalized one-shot report: the example's golden, or — for a
  /// member, which has none — the reference pass's report.
  DaemonExpectation Expect;
  bool Thread = false;
  bool Member = false;
};

std::string readText(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream S;
  S << F.rdbuf();
  return S.str();
}

/// A member as `astral-cli emit-family` prints it: the environment spec
/// travels as @astral directives, since the daemon reads options from the
/// source.
std::string selfSpecifying(const codegen::FamilyProgram &FP) {
  std::string Out;
  char Buf[192];
  for (const auto &[Name, R] : FP.VolatileRanges) {
    std::snprintf(Buf, sizeof(Buf), "// @astral volatile %s %.17g %.17g\n",
                  Name.c_str(), R.Lo, R.Hi);
    Out += Buf;
  }
  for (const std::string &Fn : FP.PartitionFunctions)
    Out += "// @astral partition " + Fn + "\n";
  for (double T : FP.DocumentedThresholds) {
    std::snprintf(Buf, sizeof(Buf), "// @astral threshold %.17g\n", T);
    Out += Buf;
  }
  Out += "// @astral clock-max 1e6\n";
  return Out + FP.Source;
}

std::vector<DaemonInput> loadDaemonInputs() {
  cli::CliOptions Cli;
  for (const char *E : Examples)
    Cli.InputPaths.push_back(std::string("examples/") + E + ".cpp");
  std::vector<std::string> Notes;
  std::string Err;
  std::optional<std::vector<cli::LoadedFile>> Files =
      cli::loadInputFiles(Cli, Notes, Err);
  if (!Files)
    throw std::runtime_error("cannot load examples/: " + Err);
  std::vector<DaemonInput> Inputs;
  for (size_t I = 0; I < Files->size(); ++I) {
    cli::LoadedFile &F = (*Files)[I];
    std::string Stem = Examples[I];
    Inputs.push_back({F.Path, std::move(F.Source), std::move(F.Headers),
                      {readText("tests/golden/" + Stem + ".expected.json")},
                      Stem.rfind("thread_", 0) == 0, false});
  }
  for (unsigned M = 0; M < DaemonMembers; ++M) {
    codegen::GeneratorConfig G;
    G.TargetLines = DaemonMemberLines;
    G.Seed = M + 1;
    Inputs.push_back({"member-" + std::to_string(G.Seed) + ".c",
                      selfSpecifying(codegen::generateFamilyProgram(G)),
                      {},
                      {},
                      false,
                      true});
  }
  return Inputs;
}

/// The flag tokens of every analyze request.
const std::vector<std::string> RequestArgs = {"--json"};

/// The options the daemon assembles for one input of a request.
AnalysisInput daemonAnalysisInput(const DaemonInput &D,
                                  const cli::CliOptions &Cli) {
  std::vector<std::string> Warnings;
  AnalysisInput In;
  In.Source = D.Source;
  In.FileName = D.Path;
  In.Headers = D.Headers;
  In.Options = cli::assembleOptions(Cli, D.Path, D.Source, Warnings);
  return In;
}

struct Daemon {
  std::vector<DaemonInput> Inputs;
  std::unique_ptr<service::Server> Server;
  std::vector<std::unique_ptr<service::Client>> Clients;
};

/// One request of the closed loop; checked after the timed window, when
/// every input's expected report is known.
struct RequestRecord {
  size_t Input = 0;
  bool Edited = false;
  bool Traced = false;
  double Ms = 0;
  uint64_t Lines = 0;
  std::optional<JsonValue> Resp;
  std::string TransportError;
};

double number(const JsonValue *V) {
  return V && V->isNumber() ? V->asNumber() : 0;
}

void clientLoop(service::Client &Cl, unsigned Id, const RunConfig &C,
                const std::vector<DaemonInput> &Inputs, Tracer *T,
                Clock::time_point Start, std::vector<RequestRecord> &Out) {
  uint64_t Rng = derive(C.Seed, 300 + Id);
  for (uint64_t N = 0; since(Start) < C.Seconds; ++N) {
    Rng = mix(Rng);
    RequestRecord Rec;
    Rec.Input = Rng % Inputs.size();
    Rec.Edited = (Rng >> 24) % 4 == 0;
    Rec.Traced = T && N % 2 == 1;
    const DaemonInput &In = Inputs[Rec.Input];
    service::Request Req;
    Req.Operation = service::Request::Op::Analyze;
    Req.Args = RequestArgs;
    // Appended after the last line: the content hash changes, the alarm
    // lines and the verdict do not.
    std::string Source = In.Source;
    if (Rec.Edited)
      Source += "\n/* edit " + std::to_string((Rng >> 32) % EditVariants) +
                " */\n";
    Rec.Lines = sourceLines(Source);
    Req.Files.push_back({In.Path, std::move(Source), In.Headers});

    Clock::time_point Sent = Clock::now();
    {
      Tracer::Scope Sp(Rec.Traced ? T : nullptr, "Client::roundTrip",
                       "service", 0, (uint64_t(Id) << 32) | (N + 1));
      Rec.Resp = Cl.roundTrip(Req, Rec.TransportError);
    }
    Rec.Ms = since(Sent) * 1e3;
    Out.push_back(std::move(Rec));
  }
}

RunResult runDaemon(const RunConfig &C) {
  std::filesystem::create_directories(OutDir);
  const std::string Socket =
      OutDir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Tracer> T = C.Trace ? std::make_unique<Tracer>() : nullptr;

  auto MakeDaemon = [&] {
    auto D = std::make_unique<Daemon>();
    D->Inputs = loadDaemonInputs();
    service::ServerConfig Cfg;
    Cfg.SocketPath = Socket;
    Cfg.Jobs = DaemonJobs;
    Cfg.Verbose = false;
    D->Server = std::make_unique<service::Server>(Cfg);
    std::string Err;
    bool Started;
    {
      Tracer::Scope Sp(T.get(), "Server::start", "service");
      Started = D->Server->start(Err);
    }
    if (!Started)
      throw std::runtime_error(Err);
    for (unsigned K = 0; K < DaemonClients; ++K) {
      std::unique_ptr<service::Client> Cl =
          service::Client::connect(Socket, Err);
      if (!Cl)
        throw std::runtime_error("cannot connect to the daemon: " + Err);
      D->Clients.push_back(std::move(Cl));
    }
    return D;
  };
  // Each repetition's daemon stops, untimed, before the next one starts.
  std::vector<double> SetupSeconds;
  std::unique_ptr<Daemon> D = timedSetup(
      SetupSeconds, MakeDaemon, [](std::unique_ptr<Daemon> Old) { Old.reset(); });

  // Closed loop: each client sends its next request when the previous
  // response arrives.
  std::vector<std::vector<RequestRecord>> PerClient(DaemonClients);
  Clock::time_point Start = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (unsigned K = 0; K < DaemonClients; ++K)
      Threads.emplace_back(clientLoop, std::ref(*D->Clients[K]), K,
                           std::cref(C), std::cref(D->Inputs), T.get(), Start,
                           std::ref(PerClient[K]));
    for (std::thread &Th : Threads)
      Th.join();
  }
  OpLog L;
  L.WindowSeconds = since(Start);

  service::Request StatsReq;
  StatsReq.Operation = service::Request::Op::CacheStats;
  std::string Err;
  std::optional<JsonValue> CacheStats = D->Clients[0]->roundTrip(StatsReq, Err);
  std::vector<DaemonInput> Inputs = std::move(D->Inputs);
  D.reset();

  // Reference pass: every distinct input once through the session phases,
  // outside the timed window. It gives each member its expected report (the
  // daemon must answer exactly as the one-shot path does), the
  // abstract-state peak (responses do not carry it) and, in the traced run,
  // the per-phase split and the counts of a cold request.
  cli::CliOptions Cli;
  cli::parseArgs(RequestArgs, Cli);
  Counters Stats, ThreadStats;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    AnalysisInput In = daemonAnalysisInput(Inputs[I], Cli);
    double Seconds = 0;
    AnalysisResult R = analyzePhased(In, T.get(), 1 + I, Seconds);
    L.PeakAbstractMb.push_back(R.PeakAbstractBytes / 1048576.0);
    accumulate(Inputs[I].Thread ? ThreadStats : Stats, R.Stats.all());
    if (Inputs[I].Member) {
      Inputs[I].Expect.Golden =
          normalizeReport(cli::renderRun(Cli, {In.FileName}, {R}).Out);
      // Members carry no injected bugs: every alarm on one is false. The
      // daemon is still held to the one-shot answer; the count is reported.
      L.FalseAlarms += R.Alarms.size();
    }
    if (T)
      traceFrontendEntryPoints(In, *T, 1 + I);
  }

  std::vector<double> Cold, Warm, Overhead, ThreadMs;
  for (const std::vector<RequestRecord> &Recs : PerClient)
    for (const RequestRecord &Rec : Recs) {
      L.op(Rec.Ms / 1e3, Rec.Traced);
      L.InputSeconds[Rec.Input].push_back(Rec.Ms / 1e3);
      const DaemonInput &In = Inputs[Rec.Input];
      std::string Why =
          Rec.Resp ? checkDaemonResponse(*Rec.Resp, In.Expect, Rec.Edited)
                   : "transport failure: " + Rec.TransportError;
      L.check(Why.empty() ? Why : In.Path + ": " + Why);
      if (!Why.empty())
        continue;
      L.Lines += double(Rec.Lines);
      const JsonValue *Cache = Rec.Resp->find("cache");
      bool IsCold = Cache && number(Cache->find("frontend_misses")) > 0;
      (IsCold ? Cold : Warm).push_back(Rec.Ms);
      std::optional<JsonValue> Report =
          JsonValue::parse(Rec.Resp->find("stdout")->asString(), Err);
      Overhead.push_back(Rec.Ms - 1e3 * (Report ? number(Report->find(
                                                      "analysis_seconds"))
                                                : 0));
      if (In.Thread)
        ThreadMs.push_back(Rec.Ms);
    }
  if (!CacheStats)
    L.check("cache-stats request failed: " + Err);
  if (!C.Trace)
    return finish(C, L, SetupSeconds, {}, nullptr);

  Values V;
  addCountMetrics(V, Stats);
  if (ThreadStats.count("concurrency.rounds"))
    V["concurrency.rounds"] = double(ThreadStats["concurrency.rounds"]);
  if (!Overhead.empty())
    V["service.overhead_ms_p50"] = median(Overhead);
  if (!Cold.empty())
    V["service.cold_ms_p50"] = median(Cold);
  if (!Warm.empty())
    V["service.warm_ms_p50"] = median(Warm);
  if (!ThreadMs.empty())
    V["concurrency.request_ms_p50"] = median(ThreadMs);
  V["service.request_ms_p90"] = 1e3 * quantile(L.OpSeconds, 0.9);
  V["service.requests_per_s"] = double(L.Attempted) / L.WindowSeconds;
  if (CacheStats) {
    for (const std::string Layer : {"frontend", "packing"}) {
      double Hits = number(CacheStats->find(Layer + "_hits"));
      double Lookups = Hits + number(CacheStats->find(Layer + "_misses"));
      V["service." + Layer + "_lookups"] = Lookups;
      V["service." + Layer + "_hit_ratio"] = Lookups ? Hits / Lookups : 0;
    }
    V["service.evictions"] = number(CacheStats->find("evictions"));
  }
  RunResult Res = finish(C, L, SetupSeconds, V, T.get());
  Res.Notes.push_back("phase times and counts come from one cold session "
                      "per distinct input, outside the timed window");
  return Res;
}

} // namespace
} // namespace perfbench

namespace perfbench {

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "family-1k", "family-batch", "daemon-edit-mix"};
  return Names;
}

RunResult runWorkload(const RunConfig &C) {
  if (C.Workload == "family-1k")
    return runFamily(C);
  if (C.Workload == "family-batch")
    return runBatch(C);
  if (C.Workload == "daemon-edit-mix")
    return runDaemon(C);
  throw std::runtime_error("unknown workload '" + C.Workload + "'");
}

} // namespace perfbench
