#include "exp/spec.hpp"

namespace rcsim::exp {

CellStats CellStats::over(const std::vector<RunResult>& results) {
  CellStats s;
  forEachField(s, [&results](const char*, double& total, auto, auto project) {
    for (const auto& r : results) total += static_cast<double>(project(r));
  });
  return s;
}

}  // namespace rcsim::exp
