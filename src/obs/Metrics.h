//===- obs/Metrics.h - Streaming metrics: HDR histograms, windows -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming half of the observability stack (docs/INTERNALS.md §11):
/// a process-wide `MetricsRegistry` of gauges, log-linear (HDR-style)
/// histograms with error-bounded quantiles, and sliding time-windowed
/// views, registered alongside the aggregate `obs::Registry` counters.
///
/// The log-linear histogram buckets values by octave (power of two), each
/// octave split into `SubBucketsPerOctave` linear sub-buckets, so any
/// reported quantile is within a relative error of
/// `1 / (2 * SubBucketsPerOctave)` of the true sample at that rank —
/// `relErrorBound()` reports the bound and the exporters carry it next to
/// the quantiles so downstream gates know the resolution they diff at.
///
/// Sliding windows answer "what happened recently" in one of two tick
/// domains: wall-clock microseconds (`Tracer::nowUs`) or simulated PIM
/// cycles (a registry-owned logical clock advanced by the simulator).
/// A window is a ring of `NumBuckets` accumulator buckets of fixed tick
/// width; reading sums the buckets that fall inside the trailing span.
///
/// Everything is gated on the same switch as the counter registry
/// (`obs::setObservabilityEnabled`); the `recordMetric*` helpers early-out
/// on one relaxed atomic load so call sites can live in hot paths.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_METRICS_H
#define PIMFLOW_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pf::obs {

/// A point-in-time scalar (last write wins, no aggregation).
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Summary of a log-linear histogram: exact count/sum/min/max plus
/// bounded-error quantiles.
struct QuantileStats {
  int64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  double P999 = 0.0;
  /// Maximum relative error of any quantile above vs. the true sample.
  double RelErrorBound = 0.0;

  double mean() const { return Count > 0 ? Sum / Count : 0.0; }
};

/// A log-linear scalar distribution with bounded-error quantiles. Values
/// are expected non-negative (latencies, cycle counts, byte sizes);
/// non-positive samples land in an exact zero bucket and non-finite
/// samples are dropped.
class LogLinearHistogram {
public:
  /// Linear sub-buckets per power-of-two octave. 32 bounds the relative
  /// quantile error at 1/64 ≈ 1.6%.
  static constexpr int SubBucketsPerOctave = 32;

  /// Records \p X \p Times times; the state afterwards is bit-identical
  /// to \p Times separate record(X) calls.
  void record(double X, int64_t Times = 1);
  /// Quantile \p Q in [0, 1] under the rank rule `ceil(Q * Count)`;
  /// relative error vs. the true sample at that rank is at most
  /// relErrorBound(). Returns 0 when empty.
  double quantile(double Q) const;
  QuantileStats stats() const;
  void reset();

  static constexpr double relErrorBound() {
    return 1.0 / (2.0 * SubBucketsPerOctave);
  }

private:
  double quantileLocked(double Q) const;

  mutable std::mutex Mu;
  /// Sparse bucket counts keyed by octave * SubBucketsPerOctave + sub;
  /// key order equals value order, which is what quantileLocked walks.
  std::map<int32_t, int64_t> Buckets;
  int64_t ZeroCount = 0;
  int64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

/// Which logical clock a sliding window is keyed by.
enum class TickDomain : uint8_t {
  WallUs,    ///< wall-clock microseconds (obs::Tracer::nowUs)
  SimCycles, ///< simulated PIM cycles (MetricsRegistry cycle clock)
};

const char *tickDomainName(TickDomain D);

/// Point-in-time view over a window's trailing span.
struct WindowStats {
  TickDomain Domain = TickDomain::WallUs;
  int64_t BucketWidth = 0; ///< ticks per bucket
  int64_t SpanTicks = 0;   ///< BucketWidth * NumBuckets
  int64_t Count = 0;       ///< samples inside the trailing span
  double Sum = 0.0;

  double mean() const { return Count > 0 ? Sum / Count : 0.0; }
};

/// A ring of accumulator buckets over a tick domain. Thread-safe; stale
/// buckets are lazily recycled when their slot is rewritten.
class SlidingWindow {
public:
  SlidingWindow(TickDomain D, int64_t BucketWidth, int NumBuckets = 8);

  void record(int64_t Tick, double X);
  WindowStats stats(int64_t NowTick) const;
  TickDomain domain() const { return Dom; }
  void reset();

private:
  struct Bucket {
    int64_t Epoch = -1;
    int64_t Count = 0;
    double Sum = 0.0;
  };

  TickDomain Dom;
  int64_t Width;
  mutable std::mutex Mu;
  std::vector<Bucket> Buckets;
};

/// A streaming-metric registry. The process-wide default lives behind
/// `instance()` (enabled/disabled together with obs::Registry via
/// obs::setObservabilityEnabled); additional instances back session
/// scopes (obs/Scope.h). Returned references stay valid for the
/// registry's lifetime; reset() zeroes values but never invalidates them.
class MetricsRegistry {
public:
  MetricsRegistry() = default;

  static MetricsRegistry &instance();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Finds or creates the histogram / gauge / window named \p Name. A
  /// window's domain and width are fixed by its first registration.
  LogLinearHistogram &histogram(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  SlidingWindow &window(std::string_view Name, TickDomain D,
                        int64_t BucketWidth);

  /// The simulated-cycle logical clock (TickDomain::SimCycles). Advanced
  /// by the PIM simulator as it retires work; monotonic until reset().
  void advanceCycles(int64_t N) {
    CycleClock.fetch_add(N, std::memory_order_relaxed);
  }
  int64_t cycles() const {
    return CycleClock.load(std::memory_order_relaxed);
  }

  /// All histograms with at least one sample, sorted by name.
  std::vector<std::pair<std::string, QuantileStats>> histogramSnapshot() const;
  /// All gauges with a non-zero value, sorted by name.
  std::vector<std::pair<std::string, double>> gaugeSnapshot() const;
  /// All windows with at least one in-span sample, sorted by name,
  /// evaluated at each window's current "now" tick.
  std::vector<std::pair<std::string, WindowStats>> windowSnapshot() const;

  /// Zeroes every metric and the cycle clock (registrations survive).
  void reset();

private:
  std::atomic<bool> Enabled{false};
  std::atomic<int64_t> CycleClock{0};
  mutable std::mutex Mu;
  // Transparent comparators: a lookup by name allocates no std::string.
  std::map<std::string, std::unique_ptr<LogLinearHistogram>, std::less<>>
      Histograms;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<SlidingWindow>, std::less<>> Windows;
};

/// The metrics registry obs helpers route to on this thread: the
/// installed session scope's (obs/Scope.h) when a ScopeGuard is live, the
/// global `MetricsRegistry::instance()` otherwise. Defined in Scope.cpp.
MetricsRegistry &activeMetrics();

/// Records \p X into HDR histogram \p Name when metrics are enabled.
inline void recordMetric(const char *Name, double X) {
  MetricsRegistry &M = activeMetrics();
  if (M.enabled())
    M.histogram(Name).record(X);
}

/// Records \p X into both the HDR histogram \p Name and its sliding
/// window (same name, domain \p D, \p BucketWidth ticks per bucket) at
/// tick \p Tick.
void recordMetricWindowed(const char *Name, TickDomain D, int64_t BucketWidth,
                          int64_t Tick, double X);

/// Sets gauge \p Name when metrics are enabled.
inline void setGauge(const char *Name, double X) {
  MetricsRegistry &M = activeMetrics();
  if (M.enabled())
    M.gauge(Name).set(X);
}

/// Advances the simulated-cycle clock when metrics are enabled.
inline void advanceSimCycles(int64_t N) {
  MetricsRegistry &M = activeMetrics();
  if (M.enabled())
    M.advanceCycles(N);
}

/// Renders every enabled-registry metric — counters from obs::Registry,
/// gauges / HDR histograms / windows from MetricsRegistry — in the
/// Prometheus text exposition format, sorted by
/// metric name within each section. HDR histograms become `summary`
/// families with p50/p90/p99/p999 `quantile` samples plus `_sum` and
/// `_count`. Names are sanitized (`.` and `-` become `_`) and prefixed
/// with `pimflow_`.
std::string renderPrometheus();

/// Writes renderPrometheus() to \p Path; returns false on I/O error.
bool writeMetricsText(const std::string &Path);

} // namespace pf::obs

#endif // PIMFLOW_OBS_METRICS_H
