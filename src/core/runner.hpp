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

/// A count from environment variable `var` holding `text`: null or empty
/// text gives `fallback`; anything else must be a positive integer, or
/// std::invalid_argument names the variable ("RCSIM_RUNS got '10x', ...").
[[nodiscard]] int parseEnvCount(const char* var, const char* text, int fallback);

/// Number of replicas benches run by default; honours env RCSIM_RUNS.
[[nodiscard]] int defaultRunCount(int fallback);

/// Worker threads; honours env RCSIM_THREADS, else hardware concurrency.
[[nodiscard]] int defaultThreadCount();

}  // namespace rcsim
