#pragma once

#include <vector>

#include "core/experiment.hpp"

namespace rcsim {

/// Mean over replicas of the headline scalars, plus element-wise mean
/// time series — what the paper plots ("average ... over 100 runs").
struct Aggregate {
  int runs = 0;
  double dropsNoRoute = 0.0;       ///< Figure 3 (convergence-period, mean)
  double dropsTtl = 0.0;           ///< Figure 4
  double dropsOther = 0.0;         ///< queue + link-down + in-flight, after failure
  double delivered = 0.0;
  double sent = 0.0;
  double routingConvergenceSec = 0.0;
  double forwardingConvergenceSec = 0.0;
  double transientPaths = 0.0;
  double loopFraction = 0.0;  ///< fraction of runs whose path ever looped
  double loopEscapedDeliveries = 0.0;
  std::vector<double> throughput;  ///< element-wise mean, absolute seconds
  std::vector<double> meanDelay;   ///< mean over runs with deliveries in that second
  int failSec = 0;

  [[nodiscard]] static Aggregate over(const std::vector<RunResult>& results);
};

/// Aggregate's field table (core/fields.hpp), in fingerprint order. A
/// scalar row's last argument is its projection from one RunResult:
/// Aggregate::over sets the field to the mean of the projections as
/// doubles, so a bool's mean is a fraction of runs. runs, failSec and the
/// two series are folded by hand.
template <FieldsOf<Aggregate> A, class V>
void forEachField(A& a, V&& v) {
  using R = const RunResult&;
  v("runs", a.runs, kFingerprinted);
  v("dropsNoRoute", a.dropsNoRoute, kFingerprinted,
    [](R r) { return r.dataAfterFailure.dropNoRoute; });
  v("dropsTtl", a.dropsTtl, kFingerprinted, [](R r) { return r.dataAfterFailure.dropTtl; });
  v("dropsOther", a.dropsOther, kFingerprinted, [](R r) {
    const PacketCounters& c = r.dataAfterFailure;
    return c.dropQueue + c.dropLinkDown + c.dropInFlightCut;
  });
  v("delivered", a.delivered, kFingerprinted, [](R r) { return r.data.delivered; });
  v("sent", a.sent, kFingerprinted, [](R r) { return r.sent; });
  v("routingConvergenceSec", a.routingConvergenceSec, kFingerprinted,
    [](R r) { return r.routingConvergenceSec; });
  v("forwardingConvergenceSec", a.forwardingConvergenceSec, kFingerprinted,
    [](R r) { return r.forwardingConvergenceSec; });
  v("transientPaths", a.transientPaths, kFingerprinted, [](R r) { return r.transientPaths; });
  v("loopFraction", a.loopFraction, kFingerprinted, [](R r) { return r.sawLoop; });
  v("loopEscapedDeliveries", a.loopEscapedDeliveries, kFingerprinted,
    [](R r) { return r.loopEscapedDeliveries; });
  v("failSec", a.failSec, kFingerprinted);
  v("throughput", a.throughput, kFingerprinted);
  v("meanDelay", a.meanDelay, kFingerprinted);
}

/// A count from environment variable `var` holding `text`: null or empty
/// text gives `fallback`; anything else must be a positive integer, or
/// std::invalid_argument names the variable ("RCSIM_RUNS got '10x', ...").
[[nodiscard]] int parseEnvCount(const char* var, const char* text, int fallback);

/// Number of replicas benches run by default; honours env RCSIM_RUNS.
[[nodiscard]] int defaultRunCount(int fallback);

/// Worker threads; honours env RCSIM_THREADS, else hardware concurrency.
[[nodiscard]] int defaultThreadCount();

}  // namespace rcsim
