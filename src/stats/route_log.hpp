#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace rcsim {

/// Aggregated view of every FIB change in the network. Provides the
/// paper's "network routing convergence time" (Figure 6b): the time of the
/// last route change after the failure watermark.
class RouteChangeLog {
 public:
  /// The failure-injection time; changes at or after it count as
  /// convergence activity.
  void setWatermark(Time t) { watermark_ = t; }

  void record(Time t) {
    lastAny_ = t;
    if (t >= watermark_) ++afterWatermark_;
  }

  [[nodiscard]] std::uint64_t changesAfterWatermark() const { return afterWatermark_; }

  /// Seconds from watermark to the last observed change (0 when no change
  /// happened after the watermark).
  [[nodiscard]] double convergenceSeconds() const {
    if (lastAny_ < watermark_) return 0.0;
    return (lastAny_ - watermark_).toSeconds();
  }

 private:
  Time watermark_ = Time::infinity();
  Time lastAny_ = Time::zero();
  std::uint64_t afterWatermark_ = 0;
};

}  // namespace rcsim
