//===- perfbench/src/Trace.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. A span is recorded around each call the benchmark
/// makes into a layer (an AnalysisSession phase, analyzeBatch, Server::start,
/// Client::roundTrip, a frontend entry point): name, layer, start, end, the
/// span that caused it and the request it belongs to. Spans stay in memory
/// and are written once, at exit, as Chrome trace-event JSON (viewable in
/// chrome://tracing or Perfetto). A disabled tracer records nothing; the
/// untraced run never constructs one.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_PERFBENCH_TRACE_H
#define ASTRAL_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Span {
    std::string Name;
    std::string Layer;
    int64_t StartNs = 0;
    int64_t EndNs = -1; ///< -1 while open.
    uint64_t Parent = 0; ///< 0 = root.
    uint64_t Request = 0;
    unsigned Tid = 0;
  };

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name, const char *Layer, uint64_t Parent = 0,
          uint64_t Request = 0)
        : T(T), Id(T ? T->begin(Name, Layer, Parent, Request) : 0) {}
    ~Scope() {
      if (T)
        T->end(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    uint64_t id() const { return Id; }

  private:
    Tracer *T;
    uint64_t Id;
  };

  Tracer() : Origin(std::chrono::steady_clock::now()) {}

  /// Opens a span; ids start at 1.
  uint64_t begin(const char *Name, const char *Layer, uint64_t Parent,
                 uint64_t Request);
  void end(uint64_t Id);

  /// Self time per span name, in seconds: each span's duration minus the
  /// time its child spans cover, summed over every closed span of the name.
  std::map<std::string, double> selfSeconds() const;
  /// Number of closed spans per name.
  std::map<std::string, uint64_t> spanCounts() const;

  /// Writes every span as a Chrome trace-event "X" event, plus \p OtherData
  /// (a JSON object text) as the file's "otherData". False on I/O failure.
  bool writeChromeJson(const std::string &Path,
                       const std::string &OtherData) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  std::chrono::steady_clock::time_point Origin;
  mutable std::mutex Mu; ///< Guards Spans and Tids.
  std::vector<Span> Spans; ///< Span id N lives at index N - 1.
  std::map<std::thread::id, unsigned> Tids;
};

} // namespace perfbench

#endif // ASTRAL_PERFBENCH_TRACE_H
