//===- perfbench/Harness.h - Timing, spans, counts, result line -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement substrate of the perfbench binary: steady-clock timing,
/// nearest-rank statistics, a host-speed calibration that host times are
/// scaled by, an in-memory span log recorded around perfbench's calls
/// into each PIMFlow layer, exact counter snapshots read through the
/// public obs API, and the one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PERFBENCH_HARNESS_H
#define PIMFLOW_PERFBENCH_HARNESS_H

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/Counters.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// Nearest-rank percentile (P in (0, 100]) of \p V; 0 for an empty set.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 50.0);
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Keeps the calibration's result live, so that it is computed.
inline volatile double CalibrationSink = 0.0;

/// The host-speed reference: a fixed piece of the kind of work the program
/// does most (heap nodes with string names, a hash index over them, a pass
/// over their edges), kept in the benchmark so that no change to the
/// program moves it. Returns its wall time in ms: about 1 ms, and up to
/// 1.8x that when the host is in a slow stretch.
inline double calibrationMs() {
  struct Node {
    std::string Name;
    std::vector<int> Ins;
    double W = 0.0;
  };
  const auto T0 = Clock::now();
  std::vector<std::unique_ptr<Node>> G;
  std::unordered_map<std::string, int> Index;
  for (int I = 0; I < 4000; ++I) {
    auto N = std::make_unique<Node>();
    N->Name = "node_" + std::to_string(I * 2654435761u % 100000u);
    for (int K = 1; K <= 3 && K <= I; ++K)
      N->Ins.push_back((I * 7 + K) % I);
    N->W = I * 0.5;
    Index[N->Name] = I;
    G.push_back(std::move(N));
  }
  double Sum = 0.0;
  for (const auto &N : G)
    for (int In : N->Ins)
      Sum += G[static_cast<size_t>(In)]->W +
             static_cast<double>(Index.count(N->Name));
  CalibrationSink = Sum;
  return msSince(T0);
}

/// A wall time scaled to a host on which calibrationMs() takes 1 ms, by
/// the median of three calibrations run right after it. The host's speed
/// drifts by up to 1.75x, in stretches from a second to minutes; the
/// calibration slows with it, so the ratio holds still while a change to
/// the program still moves it.
inline double scaledMs(double Ms) {
  return Ms / median({calibrationMs(), calibrationMs(), calibrationMs()});
}

/// The timed ops of a run in run order, each with a calibration run right
/// after it.
class ScaledOps {
public:
  void add(size_t Case, double Ms) {
    Ops.push_back({Case, Ms, calibrationMs()});
  }
  size_t size() const { return Ops.size(); }

  /// Each case's median op time, each op scaled as in scaledMs() by the
  /// median calibration of the ops within three places of it in run order.
  std::vector<double> caseMedians(size_t NumCases) const {
    std::vector<std::vector<double>> ByCase(NumCases);
    for (size_t I = 0; I < Ops.size(); ++I) {
      std::vector<double> Near;
      for (size_t J = I >= 3 ? I - 3 : 0; J < std::min(Ops.size(), I + 4); ++J)
        Near.push_back(Ops[J].CalMs);
      ByCase[Ops[I].Case].push_back(Ops[I].Ms / median(Near));
    }
    std::vector<double> Out;
    for (const std::vector<double> &V : ByCase)
      Out.push_back(median(V));
    return Out;
  }

  double medianCalibrationMs() const {
    std::vector<double> V;
    for (const Op &O : Ops)
      V.push_back(O.CalMs);
    return median(V);
  }

private:
  struct Op {
    size_t Case;
    double Ms;
    double CalMs;
  };
  std::vector<Op> Ops;
};

/// Peak resident set size of this process image, in MiB: VmHWM, which
/// exec resets (getrusage's ru_maxrss also counts the parent's RSS at fork
/// time, so a run under a Python launcher would report the launcher's).
inline double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
      break;
  std::fclose(F);
  return static_cast<double>(Kb) / 1024.0;
}

/// The layers spans are attributed to: PIMFlow's modules, as perfbench
/// reaches them through their public entry points.
enum Layer : int { Search, Plan, Transform, Runtime, Obs, Serve, NumLayers };

inline const char *layerName(int L) {
  static const char *const Names[] = {"search",  "plan", "transform",
                                      "runtime", "obs",  "serve"};
  return Names[L];
}

/// The public entry points perfbench wraps in spans, and the layer each
/// one belongs to.
enum Call : int {
  CallPlan,          ///< PimFlow::plan
  CallSerialize,     ///< PimFlow::planKey + serializePlanArtifact
  CallParse,         ///< parsePlanArtifact
  CallKey,           ///< PimFlow::planKey + validatePlanKey
  CallMaterialize,   ///< PimFlow::materialize
  CallExecute,       ///< ExecutionEngine::execute, no session scope
  CallScopedExecute, ///< the same under a ScopeGuard on a fresh obs::Scope
  CallServeRun,      ///< serve::Server::run
  NumCalls
};

inline int callLayer(int C) {
  static const int Layers[] = {Search,    Plan,    Plan, Plan,
                               Transform, Runtime, Obs,  Serve};
  return Layers[C];
}

/// Per-layer self times and per-call durations of one op, plus the op
/// root's own (unattributed) time, all in milliseconds.
struct SelfTimes {
  std::array<double, NumLayers> Layer{};
  std::array<double, NumCalls> CallMs{};
  double Unattributed = 0.0;
  double OpMs = 0.0;

  double layerSum() const {
    double S = 0.0;
    for (double X : Layer)
      S += X;
    return S;
  }
};

/// An in-memory span log: name (layer), start, end, and the span that
/// caused it. Spans are kept for the whole run and reduced to self times
/// once it ends: a span's self time is its duration minus the part its
/// children cover.
class SpanLog {
public:
  /// Opens an op's root span.
  int openRoot() { return open(-1, -1); }
  void close(int Id) { Spans[static_cast<size_t>(Id)].End = Clock::now(); }

  /// Runs \p F inside a span of call \p C under \p Parent; Parent < 0
  /// runs it untraced.
  template <typename Fn> decltype(auto) run(int C, int Parent, Fn &&F) {
    if (Parent < 0)
      return F();
    struct Closer {
      SpanLog &Log;
      int Id;
      ~Closer() { Log.close(Id); }
    } Guard{*this, open(C, Parent)};
    return F();
  }

  /// Self times of the op rooted at span \p Root. An op's spans follow its
  /// root contiguously, up to the next root.
  SelfTimes selfTimes(int Root) const {
    const size_t Begin = static_cast<size_t>(Root);
    size_t End = Begin + 1;
    while (End < Spans.size() && Spans[End].Parent >= 0)
      ++End;
    std::vector<double> Self(End - Begin);
    for (size_t I = Begin; I < End; ++I)
      Self[I - Begin] = durMs(Spans[I]);
    for (size_t I = Begin + 1; I < End; ++I)
      Self[static_cast<size_t>(Spans[I].Parent) - Begin] -= durMs(Spans[I]);
    SelfTimes T;
    T.OpMs = durMs(Spans[Begin]);
    T.Unattributed = Self[0];
    for (size_t I = Begin + 1; I < End; ++I) {
      const int C = Spans[I].C;
      T.Layer[static_cast<size_t>(callLayer(C))] += Self[I - Begin];
      T.CallMs[static_cast<size_t>(C)] += durMs(Spans[I]);
    }
    return T;
  }

private:
  int open(int C, int Parent) {
    Spans.push_back({C, Parent, Clock::now(), {}});
    return static_cast<int>(Spans.size()) - 1;
  }

  struct Span {
    int C;
    int Parent;
    Clock::time_point Start, End;
  };
  static double durMs(const Span &S) {
    return std::chrono::duration<double, std::milli>(S.End - S.Start)
        .count();
  }
  std::vector<Span> Spans;
};

/// Exact counter values by name, as recorded by the program itself.
using Counts = std::map<std::string, int64_t>;

/// Adds \p R's counters of the families the benchmark checks into \p Out.
inline void addCounts(const pf::obs::Registry &R, Counts &Out) {
  static const char *const Families[] = {"profiler.", "search.",  "engine.",
                                         "pim.sim.",  "codegen.", "serve.",
                                         "plan."};
  for (const auto &[Name, V] : R.counterSnapshot())
    for (const char *F : Families)
      if (Name.rfind(F, 0) == 0) {
        Out[Name] += V;
        break;
      }
}

inline int64_t count(const Counts &C, const char *Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

/// FNV-1a 64 digest of a count set, for the per-run identity line.
inline uint64_t digest(const Counts &C) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](const std::string &S) {
    for (unsigned char Ch : S) {
      H ^= Ch;
      H *= 1099511628211ull;
    }
  };
  for (const auto &[Name, V] : C)
    Mix(Name + "=" + std::to_string(V) + ";");
  return H;
}

/// One reported metric.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Renders the result line the benchmark contract asks for; false when a
/// metric is not a finite number.
inline bool printResult(bool Correct, long Attempted, long Failed,
                        const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   M.Name.c_str());
      return false;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return true;
}

} // namespace perfbench

#endif // PIMFLOW_PERFBENCH_HARNESS_H
