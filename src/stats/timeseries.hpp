#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace rcsim {

/// Per-second buckets of delivery statistics, the raw material of the
/// paper's Figure 5 (instantaneous throughput) and Figure 7 (instantaneous
/// packet delay). The buckets cover [0, end) and are sized up front;
/// deliveries outside it are not bucketed, so a corrupt trace time cannot
/// grow the series.
class TimeSeries {
 public:
  struct Bucket {
    std::uint32_t delivered = 0;
    double delaySum = 0.0;  ///< seconds, over delivered packets
  };

  explicit TimeSeries(Time end)
      : buckets_(end > Time::zero() ? static_cast<std::size_t>((end.ns() - 1) / kNsPerSec + 1)
                                    : 0) {}

  void recordDelivery(Time t, double delaySec) {
    if (t < Time::zero()) return;
    const auto sec = static_cast<std::size_t>(t.ns() / kNsPerSec);
    if (sec >= buckets_.size()) return;
    auto& b = buckets_[sec];
    ++b.delivered;
    b.delaySum += delaySec;
  }

  [[nodiscard]] const Bucket& bucket(int second) const {
    static const Bucket kEmpty{};
    const auto i = static_cast<std::size_t>(second);
    return second >= 0 && i < buckets_.size() ? buckets_[i] : kEmpty;
  }

  [[nodiscard]] double throughputAt(int second) const {
    return static_cast<double>(bucket(second).delivered);
  }

  /// Mean end-to-end delay of packets delivered in this second (0 if none).
  [[nodiscard]] double meanDelayAt(int second) const {
    const auto& b = bucket(second);
    return b.delivered == 0 ? 0.0 : b.delaySum / b.delivered;
  }

 private:
  static constexpr std::int64_t kNsPerSec = 1'000'000'000;

  std::vector<Bucket> buckets_;
};

}  // namespace rcsim
