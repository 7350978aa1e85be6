#include "fuzz/coverage.hpp"

#include <algorithm>
#include <map>

#include "core/digest.hpp"

namespace rcsim::fuzz {
namespace {

/// AFL's count squash: eight buckets over a 64-bit count.
std::uint32_t countBucket(std::uint64_t n) {
  if (n <= 3) return static_cast<std::uint32_t>(n - 1);  // 1, 2, 3
  if (n <= 7) return 3;
  if (n <= 15) return 4;
  if (n <= 31) return 5;
  if (n <= 127) return 6;
  return 7;
}

/// FNV-1a over a string, folded into the outcome-feature tail.
std::uint32_t outcomeHash(const std::string& text) {
  return static_cast<std::uint32_t>(Fnv1a{}.add(text).value() % (CoverageMap::kOutcomeSpace - 8));
}

}  // namespace

std::vector<std::uint32_t> runFeatures(const RunOutcome& outcome) {
  std::map<std::uint32_t, std::uint64_t> bigramCounts;
  for (std::size_t i = 1; i < outcome.trace.size(); ++i) {
    const auto prev = static_cast<std::uint32_t>(outcome.trace[i - 1].kind);
    const auto cur = static_cast<std::uint32_t>(outcome.trace[i].kind);
    ++bigramCounts[prev * static_cast<std::uint32_t>(obs::kTraceKindCount) + cur];
  }
  std::vector<std::uint32_t> features;
  features.reserve(bigramCounts.size() + 2);
  for (const auto& [bigram, count] : bigramCounts) {
    features.push_back(bigram * 8 + countBucket(count));
  }
  // Outcome features live in the tail: the status itself, then a hashed
  // slot for the specific invariant/exception reached.
  const std::uint32_t base = CoverageMap::kBigramSpace;
  features.push_back(base + static_cast<std::uint32_t>(outcome.status));
  if (outcome.status != RunStatus::Clean) {
    const std::string firstLine = outcome.detail.substr(0, outcome.detail.find('\n'));
    features.push_back(base + 8 + outcomeHash(firstLine));
  }
  std::sort(features.begin(), features.end());
  features.erase(std::unique(features.begin(), features.end()), features.end());
  return features;
}

}  // namespace rcsim::fuzz
