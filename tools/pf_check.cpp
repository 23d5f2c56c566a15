//===- tools/pf_check.cpp - One validator for every artifact ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the artifacts the driver writes, for CTest smoke tests, ci.sh
/// gates and shell pipelines. One verb per artifact kind:
///
///   pf_check json [--stats] <file.json>
///       Any well-formed JSON document; --stats also requires a `stats`
///       object (a `--perf-report` run report carries one).
///   pf_check chrome <trace.json>
///       A Chrome trace, checked semantically (obs/TraceCheck.h): every
///       event carries a string `ph` and numeric `pid`/`tid`; non-metadata
///       events need a non-negative `ts`, and any `dur` is non-negative;
///       per-lane `B`/`E` spans nest (name-matched, none left open); every
///       flow id resolves to an `s`/`f` pair.
///   pf_check trace [--min-requests=N] <trace.json>
///       A `pimflow serve --trace-out` trace: every chrome check, then the
///       serve request-lane laws (docs/INTERNALS.md section 15): each
///       request lane (pid 3, tid = request id) opens exactly one root
///       `serve.request` span carrying a 16-hex `trace_id` arg, and with
///       --min-requests=N at least N request lanes exist.
///   pf_check metrics [--min-quantile-metrics=N] <metrics.txt>
///       A `--metrics-out` Prometheus exposition, line by line: every
///       sample is `name[{labels}] value` with a legal name and a finite
///       value, preceded by a `# TYPE` line for its family (`_sum`,
///       `_count`, `_min`, `_max` bind to their base family); no family is
///       declared twice; within a family, `quantile="Q"` samples have
///       strictly increasing Q and non-decreasing values. With
///       --min-quantile-metrics=N at least N families carry quantiles.
///   pf_check plan <artifact.plan>
///       A `pimflow compile --plan-out` artifact: it parses (magic,
///       version, byte count, checksum, records), re-serializes byte for
///       byte, and is coherent (segments exist, PredictedNs is the segment
///       sum, every decision has candidates, every segment node has
///       exactly one decision).
///   pf_check diff <baseline.json> <current.json>
///       The regression gate over two perf reports or two bench results
///       dumps (obs::perfDiff, default 25% relative threshold with an
///       absolute floor, so a zero baseline still gates).
///
/// Exit codes: 0 = pass, 1 = fail (invalid artifact or regression),
/// 2 = usage or I/O error.
///
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/Json.h"
#include "obs/PerfReport.h"
#include "obs/TraceCheck.h"
#include "plan/PlanArtifact.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pf_check json [--stats] <file.json>\n"
               "       pf_check chrome <trace.json>\n"
               "       pf_check trace [--min-requests=N] <trace.json>\n"
               "       pf_check metrics [--min-quantile-metrics=N] "
               "<metrics.txt>\n"
               "       pf_check plan <artifact.plan>\n"
               "       pf_check diff <baseline.json> <current.json>\n"
               "exit: 0 = pass, 1 = fail, 2 = usage or I/O error\n");
  return 2;
}

/// Reports "error: <path>: <message>" and returns the fail exit code.
int fail(const std::string &Path, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "error: %s: ", Path.c_str());
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
  return 1;
}

//===----------------------------------------------------------------------===//
// chrome / trace
//===----------------------------------------------------------------------===//

/// The serve request-lane laws on top of a chrome-clean trace: one root
/// `serve.request` span per request lane, each on pid 3 with a trace id.
/// Fills \p Lanes with the number of request lanes.
int checkRequestLanes(const std::string &Path, const obs::JsonValue &Doc,
                      long MinRequests, size_t &Lanes) {
  const obs::JsonValue *Events = Doc.find("traceEvents");
  std::map<long long, size_t> RootsPerLane;
  for (size_t I = 0; I < Events->Array.size(); ++I) {
    const obs::JsonValue &E = Events->Array[I];
    const obs::JsonValue *Ph = E.find("ph");
    const obs::JsonValue *Cat = E.find("cat");
    if (!Ph || Ph->Str != "B" || !Cat || !Cat->isString() ||
        Cat->Str != "serve.request")
      continue;
    const long long Tid = static_cast<long long>(E.numberOr("tid", -1.0));
    ++RootsPerLane[Tid];
    const obs::JsonValue *Args = E.find("args");
    const obs::JsonValue *TraceId = Args ? Args->find("trace_id") : nullptr;
    if (!TraceId || !TraceId->isString() || TraceId->Str.size() != 16)
      return fail(Path,
                  "traceEvents[%zu]: request root on tid %lld lacks a "
                  "16-hex 'trace_id' arg",
                  I, Tid);
    if (static_cast<long long>(E.numberOr("pid", -1.0)) != 3)
      return fail(Path,
                  "traceEvents[%zu]: serve.request root off the request "
                  "process (pid 3)",
                  I);
  }
  for (const auto &[Tid, Count] : RootsPerLane)
    if (Count != 1)
      return fail(Path,
                  "request lane tid %lld has %zu root spans (want exactly "
                  "1)",
                  Tid, Count);
  Lanes = RootsPerLane.size();
  if (MinRequests >= 0 && Lanes < static_cast<size_t>(MinRequests))
    return fail(Path, "%zu request lanes, want at least %ld", Lanes,
                MinRequests);
  return 0;
}

//===----------------------------------------------------------------------===//
// metrics
//===----------------------------------------------------------------------===//

bool validMetricName(const std::string &Name) {
  auto isStart = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == ':';
  };
  if (Name.empty() || !isStart(Name[0]))
    return false;
  for (char C : Name.substr(1))
    if (!isStart(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

/// Strips the conventional summary/window suffixes so samples bind to the
/// family their TYPE line declared (`foo_sum` belongs to family `foo`).
std::string familyOf(const std::string &Name,
                     const std::set<std::string> &Declared) {
  if (Declared.count(Name))
    return Name;
  for (const char *Suffix : {"_sum", "_count", "_min", "_max"}) {
    const size_t Len = std::strlen(Suffix);
    if (Name.size() > Len &&
        Name.compare(Name.size() - Len, Len, Suffix) == 0) {
      const std::string Base = Name.substr(0, Name.size() - Len);
      if (Declared.count(Base))
        return Base;
    }
  }
  return Name;
}

int checkMetrics(const std::string &Path, const std::string &Text,
                 long MinQuantileMetrics) {
  struct QuantileState {
    double LastQ = -1.0;
    double LastValue = 0.0;
  };
  std::set<std::string> Declared;
  std::map<std::string, QuantileState> Quantiles;
  size_t Samples = 0, LineNo = 0;
  auto bad = [&](const char *What, const std::string &Line) {
    return fail(Path, "%zu: %s: %s", LineNo, What, Line.c_str());
  };

  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    const std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // Only `# TYPE <name> <type>` comments carry structure.
      if (!startsWith(Line, "# TYPE "))
        continue;
      const std::string Rest = Line.substr(7);
      const size_t Space = Rest.find(' ');
      if (Space == std::string::npos)
        return bad("malformed TYPE line", Line);
      const std::string Name = Rest.substr(0, Space);
      const std::string Type = Rest.substr(Space + 1);
      if (!validMetricName(Name))
        return bad("illegal metric name in TYPE line", Line);
      if (Type != "counter" && Type != "gauge" && Type != "summary" &&
          Type != "histogram" && Type != "untyped")
        return bad("unknown metric type", Line);
      if (!Declared.insert(Name).second)
        return bad("family declared twice", Line);
      continue;
    }

    // Sample line: name[{labels}] value
    const size_t NameEnd = Line.find_first_of("{ ");
    if (NameEnd == std::string::npos)
      return bad("sample line without a value", Line);
    const std::string Name = Line.substr(0, NameEnd);
    if (!validMetricName(Name))
      return bad("illegal metric name", Line);
    std::string Labels;
    size_t ValueStart = NameEnd;
    if (Line[NameEnd] == '{') {
      const size_t Close = Line.find('}', NameEnd);
      if (Close == std::string::npos)
        return bad("unterminated label set", Line);
      Labels = Line.substr(NameEnd + 1, Close - NameEnd - 1);
      ValueStart = Close + 1;
    }
    if (ValueStart >= Line.size() || Line[ValueStart] != ' ')
      return bad("missing space before value", Line);
    const std::string ValueStr = Line.substr(ValueStart + 1);
    char *End = nullptr;
    const double Value = std::strtod(ValueStr.c_str(), &End);
    if (!End || *End != '\0' || ValueStr.empty())
      return bad("non-numeric sample value", Line);
    if (!std::isfinite(Value))
      return bad("non-finite sample value", Line);
    const std::string Family = familyOf(Name, Declared);
    if (!Declared.count(Family))
      return bad("sample precedes its TYPE line", Line);
    ++Samples;

    // Quantile discipline: strictly increasing quantile, non-decreasing
    // value within one family (a p99 below its p50 is corrupt).
    const size_t QPos = Labels.find("quantile=\"");
    if (QPos == std::string::npos)
      continue;
    const size_t QStart = QPos + 10;
    const size_t QEnd = Labels.find('"', QStart);
    if (QEnd == std::string::npos)
      return bad("unterminated quantile label", Line);
    const double Q =
        std::strtod(Labels.substr(QStart, QEnd - QStart).c_str(), nullptr);
    if (Q < 0.0 || Q > 1.0)
      return bad("quantile outside [0, 1]", Line);
    auto [It, First] = Quantiles.try_emplace(Family);
    if (!First && Q <= It->second.LastQ)
      return bad("quantiles not strictly increasing", Line);
    if (!First && Value < It->second.LastValue)
      return bad("quantile values not monotone", Line);
    It->second = {Q, Value};
  }

  if (Samples == 0)
    return fail(Path, "no samples");
  if (static_cast<long>(Quantiles.size()) < MinQuantileMetrics)
    return fail(Path, "%zu quantile metric families, expected >= %ld",
                Quantiles.size(), MinQuantileMetrics);
  std::printf("%s: valid exposition, %zu families, %zu samples, %zu with "
              "quantiles\n",
              Path.c_str(), Declared.size(), Samples, Quantiles.size());
  return 0;
}

//===----------------------------------------------------------------------===//
// plan
//===----------------------------------------------------------------------===//

/// The coherence checks beyond "it parses": properties every plan the
/// search engine emits holds, so an artifact violating one was corrupted
/// in a way that kept the checksum intact (i.e. regenerated dishonestly).
int checkCoherent(const std::string &Path, const ExecutionPlan &P) {
  if (P.Segments.empty())
    return fail(Path, "plan has no segments");
  double SumNs = 0.0;
  for (const SegmentPlan &S : P.Segments) {
    if (S.Nodes.empty())
      return fail(Path, "segment with no nodes");
    SumNs += S.PredictedNs;
  }
  const double Tol = 1e-6 * std::max(1.0, std::fabs(P.PredictedNs));
  if (std::fabs(SumNs - P.PredictedNs) > Tol)
    return fail(Path,
                "predicted %.17g ns disagrees with segment sum %.17g ns",
                P.PredictedNs, SumNs);
  std::map<NodeId, int> DecisionCount;
  for (const SearchDecision &D : P.Decisions) {
    if (D.Candidates.empty())
      return fail(Path, "decision for node %d has no candidates",
                  static_cast<int>(D.Id));
    ++DecisionCount[D.Id];
  }
  for (const SegmentPlan &S : P.Segments)
    for (NodeId Id : S.Nodes) {
      auto It = DecisionCount.find(Id);
      if (It == DecisionCount.end())
        return fail(Path, "segment node %d has no decision record",
                    static_cast<int>(Id));
      if (It->second != 1)
        return fail(Path, "segment node %d has %d decision records",
                    static_cast<int>(Id), It->second);
    }
  return 0;
}

int checkPlan(const std::string &Path, const std::string &Text) {
  DiagnosticEngine DE;
  auto A = parsePlanArtifact(Text, DE);
  if (!A) {
    std::string Diags = DE.render();
    if (!Diags.empty() && Diags.back() == '\n')
      Diags.pop_back();
    return fail(Path, "invalid plan artifact:\n%s", Diags.c_str());
  }
  if (serializePlanArtifact(*A) != Text)
    return fail(Path, "does not round-trip byte-identically");
  if (const int Rc = checkCoherent(Path, A->Plan))
    return Rc;
  std::printf("%s: valid plan artifact (%zu segments, %zu decisions, key "
              "%s)\n",
              Path.c_str(), A->Plan.Segments.size(),
              A->Plan.Decisions.size(), A->Key.digest().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

/// Parses the value of `--<flag>=N` into a non-negative integer.
bool parseCount(const std::string &Arg, long &Out) {
  const std::optional<int64_t> V = parseInt(Arg.substr(Arg.find('=') + 1));
  if (!V || *V < 0) {
    std::fprintf(stderr, "error: %s expects a non-negative integer\n",
                 Arg.substr(0, Arg.find('=')).c_str());
    return false;
  }
  Out = static_cast<long>(*V);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Kind = Argv[1];
  bool WantStats = false;
  long MinRequests = -1, MinQuantileMetrics = 0;
  std::vector<std::string> Files;
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Kind == "json" && Arg == "--stats")
      WantStats = true;
    else if (Kind == "trace" && startsWith(Arg, "--min-requests=")) {
      if (!parseCount(Arg, MinRequests))
        return 2;
    } else if (Kind == "metrics" &&
               startsWith(Arg, "--min-quantile-metrics=")) {
      if (!parseCount(Arg, MinQuantileMetrics))
        return 2;
    } else if (startsWith(Arg, "-")) {
      std::fprintf(stderr, "error: unknown flag '%s' for '%s'\n",
                   Arg.c_str(), Kind.c_str());
      return usage();
    } else
      Files.push_back(Arg);
  }
  const size_t WantFiles = Kind == "diff" ? 2 : 1;
  if ((Kind != "json" && Kind != "chrome" && Kind != "trace" &&
       Kind != "metrics" && Kind != "plan" && Kind != "diff") ||
      Files.size() != WantFiles)
    return usage();

  // One loader for every kind: the raw text, plus the parsed document for
  // the JSON kinds. A missing file is an I/O error; a malformed one fails.
  std::vector<std::string> Texts;
  std::vector<obs::JsonValue> Docs;
  for (const std::string &Path : Files) {
    auto Text = obs::readTextFile(Path);
    if (!Text) {
      std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
      return 2;
    }
    if (Kind != "metrics" && Kind != "plan") {
      std::string Error;
      auto Doc = obs::JsonValue::parse(*Text, &Error);
      if (!Doc)
        return fail(Path, "%s", Error.c_str());
      Docs.push_back(std::move(*Doc));
    }
    Texts.push_back(std::move(*Text));
  }
  const std::string &Path = Files[0];

  if (Kind == "metrics")
    return checkMetrics(Path, Texts[0], MinQuantileMetrics);
  if (Kind == "plan")
    return checkPlan(Path, Texts[0]);

  const obs::JsonValue &Doc = Docs[0];
  if (Kind == "json") {
    if (!WantStats) {
      std::printf("%s: well-formed JSON\n", Path.c_str());
      return 0;
    }
    const obs::JsonValue *Stats = Doc.find("stats");
    if (!Stats || !Stats->isObject())
      return fail(Path, "missing 'stats' object");
    std::printf("%s: valid stats report, %zu stat fields\n", Path.c_str(),
                Stats->Object.size());
    return 0;
  }

  if (Kind == "diff") {
    const obs::PerfDiffResult R = obs::perfDiff(Docs[0], Docs[1]);
    if (R.Deltas.empty() && R.Notes.empty()) {
      std::fprintf(stderr,
                   "error: no gated metrics found in %s (neither a perf "
                   "report nor a bench results dump?)\n",
                   Path.c_str());
      return 2;
    }
    std::printf("%s vs %s (threshold %.0f%%):\n%s", Files[1].c_str(),
                Path.c_str(), 100.0 * obs::PerfDiffOptions().RelThreshold,
                obs::renderPerfDiff(R).c_str());
    return R.HasRegression ? 1 : 0;
  }

  // chrome, and trace on top of it.
  std::string Error;
  obs::TraceCheckSummary Summary;
  if (!obs::checkChromeTrace(Doc, Error, &Summary))
    return fail(Path, "%s", Error.c_str());
  if (Kind == "chrome") {
    std::printf("%s: valid Chrome trace, %zu events (%zu span pairs, %zu "
                "flow chains)\n",
                Path.c_str(), Summary.Events, Summary.PairedSpans,
                Summary.FlowChains);
    return 0;
  }
  size_t Lanes = 0;
  if (const int Rc = checkRequestLanes(Path, Doc, MinRequests, Lanes))
    return Rc;
  std::printf("%s: valid serve trace, %zu events, %zu request lanes, %zu "
              "span pairs, %zu flow chains\n",
              Path.c_str(), Summary.Events, Lanes, Summary.PairedSpans,
              Summary.FlowChains);
  return 0;
}
