//===- perfbench/src/Gate.cpp - The benchmark's correctness gate ----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "Gate.h"

#include <optional>
#include <regex>

using astral::service::JsonValue;

namespace perfbench {

std::string checkFamilyVerdict(const astral::AnalysisResult &R,
                               unsigned InjectedBugs) {
  if (!R.FrontendOk)
    return "frontend failed: " + R.FrontendErrors;
  if (InjectedBugs == 0) {
    if (!R.Alarms.empty())
      return std::to_string(R.Alarms.size()) +
             " false alarm(s) on a member without injected bugs";
    return "";
  }
  size_t DivAlarms = 0;
  for (const astral::Alarm &A : R.Alarms)
    if (A.Kind == astral::AlarmKind::DivByZero)
      ++DivAlarms;
  if (DivAlarms < InjectedBugs)
    return std::to_string(DivAlarms) + " division-by-zero alarm(s) for " +
           std::to_string(InjectedBugs) + " injected bug(s)";
  return "";
}

size_t falseAlarms(const astral::AnalysisResult &R, unsigned InjectedBugs) {
  return InjectedBugs == 0 ? R.Alarms.size() : 0;
}

std::string normalizeReport(const std::string &Report) {
  static const std::regex Seconds("\"analysis_seconds\": [0-9.eE+-]+");
  static const std::regex File("\"file\": \"[^\"]*\"");
  std::string Out = std::regex_replace(
      Report, Seconds, "\"analysis_seconds\": \"<time>\"");
  return std::regex_replace(Out, File, "\"file\": \"<input>\"");
}

namespace {

std::string member(const JsonValue &Doc, const char *Key) {
  const JsonValue *V = Doc.find(Key);
  return V ? V->serialize() : "<missing>";
}

} // namespace

std::string checkDaemonResponse(const JsonValue &Resp,
                                const DaemonExpectation &E, bool Edited) {
  const JsonValue *Ok = Resp.find("ok");
  if (!Ok || !Ok->isBool() || !Ok->asBool()) {
    const JsonValue *Err = Resp.find("error");
    return "error response: " +
           (Err && Err->isString() ? Err->asString() : Resp.serialize());
  }
  const JsonValue *Out = Resp.find("stdout");
  if (!Out || !Out->isString())
    return "response without a report";
  if (!Edited)
    return normalizeReport(Out->asString()) == E.Golden
               ? ""
               : "report differs from its expected report";
  std::string Err;
  std::optional<JsonValue> Report = JsonValue::parse(Out->asString(), Err);
  if (!Report || !Report->isObject())
    return "unparsable report: " + Err;
  std::optional<JsonValue> Golden = JsonValue::parse(E.Golden, Err);
  if (!Golden)
    return "unparsable expected report: " + Err;
  for (const char *Key : {"frontend_ok", "alarm_count", "alarms", "ranges"})
    if (member(*Report, Key) != member(*Golden, Key))
      return std::string("edited report's \"") + Key +
             "\" differs from its expected report";
  return "";
}

} // namespace perfbench
