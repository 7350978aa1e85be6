#include "core/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/cli.hpp"

namespace rcsim {

Aggregate Aggregate::over(const std::vector<RunResult>& results) {
  Aggregate a;
  a.runs = static_cast<int>(results.size());
  if (results.empty()) return a;
  // All runs of an aggregate share one scenario config, so the failure
  // instant is a property of the batch — take it from the first run rather
  // than whichever happens to iterate last.
  a.failSec = results.front().failSec;
  for (const auto& r : results) {
    if (r.failSec != a.failSec) {
      throw std::invalid_argument(
          "Aggregate::over: aggregating runs with differing failure times (failSec " +
          std::to_string(a.failSec) + " vs " + std::to_string(r.failSec) +
          ") — these runs are not replicas of one scenario");
    }
  }
  std::size_t maxLen = 0;
  for (const auto& r : results) {
    maxLen = std::max({maxLen, r.throughput.size(), r.meanDelay.size()});
  }
  a.throughput.assign(maxLen, 0.0);
  a.meanDelay.assign(maxLen, 0.0);
  std::vector<int> delayCounts(maxLen, 0);
  for (const auto& r : results) {
    for (std::size_t s = 0; s < r.throughput.size(); ++s) a.throughput[s] += r.throughput[s];
    for (std::size_t s = 0; s < r.meanDelay.size(); ++s) {
      if (r.meanDelay[s] > 0.0) {
        a.meanDelay[s] += r.meanDelay[s];
        ++delayCounts[s];
      }
    }
  }
  const auto n = static_cast<double>(a.runs);
  // Each scalar row's mean: its projections summed as doubles in run
  // order, over n.
  forEachField(a, [&](const char*, auto& mean, auto, auto... project) {
    if constexpr (sizeof...(project) == 1) {
      for (const auto& r : results) mean += static_cast<double>((project(r), ...));
      mean /= n;
    }
  });
  for (auto& v : a.throughput) v /= n;
  for (std::size_t s = 0; s < a.meanDelay.size(); ++s) {
    if (delayCounts[s] > 0) a.meanDelay[s] /= delayCounts[s];
  }
  return a;
}

int parseEnvCount(const char* var, const char* text, int fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  return cli::parsePositiveInt(text, var);
}

int defaultRunCount(int fallback) {
  return parseEnvCount("RCSIM_RUNS", std::getenv("RCSIM_RUNS"), fallback);
}

int defaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return parseEnvCount("RCSIM_THREADS", std::getenv("RCSIM_THREADS"),
                       hc == 0 ? 4 : static_cast<int>(hc));
}

}  // namespace rcsim
