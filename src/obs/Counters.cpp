//===- obs/Counters.cpp - Named counter registry ----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"

#include <algorithm>

#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace pf::obs;

Registry &Registry::instance() {
  static Registry R;
  return R;
}

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

std::vector<std::pair<std::string, int64_t>>
Registry::counterSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, int64_t>> Out;
  for (const auto &[Name, C] : Counters)
    if (C->value() != 0)
      Out.emplace_back(Name, C->value());
  // Sorted-by-name emission is a documented contract (goldens and diffs
  // depend on it), not an accident of the backing container.
  std::sort(Out.begin(), Out.end(),
            [](const auto &L, const auto &R) { return L.first < R.first; });
  return Out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, C] : Counters)
    C->reset();
}

void pf::obs::setObservabilityEnabled(bool On) {
  Tracer::instance().setEnabled(On);
  Registry::instance().setEnabled(On);
  MetricsRegistry::instance().setEnabled(On);
  // The flight recorder stays always-on regardless (bounded rings make it
  // free when idle); only its contents are lifecycle-managed, in
  // resetAll().
}

bool pf::obs::observabilityEnabled() {
  return Tracer::instance().enabled() || Registry::instance().enabled() ||
         MetricsRegistry::instance().enabled();
}

void pf::obs::resetAll() {
  Tracer::instance().clear();
  Registry::instance().reset();
  MetricsRegistry::instance().reset();
  FlightRecorder::instance().clear();
}
