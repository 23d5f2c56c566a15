//===- obs/Counters.h - Named counter registry ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named int64 counters, exported into the
/// perf report and the metrics exposition. Naming convention (see
/// docs/INTERNALS.md section 6): `<module>.<metric>` in lower snake case,
/// with an optional `.ch<N>` suffix for per-PIM-channel metrics — e.g.
/// `profiler.cache_hits`, `search.dp_states`, `pim.comp_columns.ch3`.
///
/// Counters are relaxed atomics, safe to bump from concurrent threads.
/// Like the tracer, the registry is disabled by default and the
/// `obs::addCounter` helper early-outs on one relaxed atomic load, so call
/// sites can live in hot paths. Distributions live in the HDR histograms
/// of obs/Metrics.h.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_COUNTERS_H
#define PIMFLOW_OBS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pf::obs {

/// A monotonically named int64 counter (values may also go down; "counter"
/// refers to the aggregation, not a monotonicity contract).
class Counter {
public:
  void add(int64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A counter registry. The process-wide default lives behind `instance()`;
/// additional instances back session scopes (obs/Scope.h) so concurrent
/// runs keep private namespaces. Returned Counter references stay valid
/// for the registry's lifetime; reset() zeroes values but never
/// invalidates them.
class Registry {
public:
  Registry() = default;

  static Registry &instance();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Finds or creates the counter named \p Name.
  Counter &counter(std::string_view Name);

  /// All counters with a non-zero value, sorted by name.
  std::vector<std::pair<std::string, int64_t>> counterSnapshot() const;

  /// Zeroes every counter (registrations and references survive).
  void reset();

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  // Transparent comparators: a lookup by name allocates no std::string.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
};

/// The registry obs helpers route to on this thread: the installed
/// session scope's (obs/Scope.h) when a ScopeGuard is live, the global
/// `Registry::instance()` otherwise. Defined in Scope.cpp.
Registry &activeRegistry();

/// Bumps counter \p Name by \p N when the active registry is enabled. The
/// name is a view, looked up without building a std::string, so disabled
/// call sites cost one thread-local read plus one atomic load.
inline void addCounter(std::string_view Name, int64_t N = 1) {
  Registry &R = activeRegistry();
  if (R.enabled())
    R.counter(Name).add(N);
}

/// Turns the whole observability layer (tracer + registry) on or off, and
/// queries it. The driver's export flags (--trace-out, --perf-report,
/// --metrics-out) call this.
void setObservabilityEnabled(bool On);
bool observabilityEnabled();

/// Clears every *global* observability registry: the Tracer's spans, the
/// Registry's counters, the MetricsRegistry's histograms, gauges,
/// windows, and cycle clock, and the FlightRecorder's per-thread rings. Used by tests, by the driver between independent compilations,
/// and by the bench harness between iterations so JSON dumps are
/// per-iteration rather than cumulative. Explicitly excluded: session
/// scopes (obs/Scope.h) — a Scope's registries belong to its owner and
/// are reset via Scope::reset(), never by this global sweep.
/// tests/obs/ResetTest.cpp asserts this coverage contract.
void resetAll();

} // namespace pf::obs

#endif // PIMFLOW_OBS_COUNTERS_H
