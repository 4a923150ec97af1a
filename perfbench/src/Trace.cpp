//===- perfbench/src/Trace.cpp - In-memory spans for the traced run -------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analyzer/CliOptions.h"

#include <cstdio>

namespace perfbench {

uint64_t Tracer::begin(const char *Name, const char *Layer, uint64_t Parent,
                       uint64_t Request) {
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> L(Mu);
  unsigned Tid =
      Tids.try_emplace(std::this_thread::get_id(), unsigned(Tids.size() + 1))
          .first->second;
  Spans.push_back({Name, Layer, Now, -1, Parent, Request, Tid});
  return Spans.size();
}

void Tracer::end(uint64_t Id) {
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id - 1].EndNs = Now;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> L(Mu);
  // Children of one span run one after another on the caller's thread, so
  // the time they cover is the sum of their durations.
  std::vector<int64_t> ChildNs(Spans.size() + 1, 0);
  for (const Span &S : Spans)
    if (S.EndNs >= 0 && S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < 0)
      continue;
    Self[S.Name] += double(S.EndNs - S.StartNs - ChildNs[I + 1]) * 1e-9;
  }
  return Self;
}

std::map<std::string, uint64_t> Tracer::spanCounts() const {
  std::lock_guard<std::mutex> L(Mu);
  std::map<std::string, uint64_t> Counts;
  for (const Span &S : Spans)
    if (S.EndNs >= 0)
      ++Counts[S.Name];
  return Counts;
}

bool Tracer::writeChromeJson(const std::string &Path,
                             const std::string &OtherData) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  bool First = true;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < 0)
      continue;
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"parent\":%llu,\"request\":%llu}}",
                 First ? "" : ",", astral::cli::jsonEscape(S.Name).c_str(),
                 astral::cli::jsonEscape(S.Layer).c_str(), S.StartNs / 1e3,
                 (S.EndNs - S.StartNs) / 1e3, S.Tid, I + 1,
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
    First = false;
  }
  std::fprintf(F, "\n],\"otherData\":%s}\n", OtherData.c_str());
  return std::fclose(F) == 0;
}

} // namespace perfbench
