#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "net/types.hpp"
#include "obs/path_walk.hpp"
#include "obs/trace.hpp"
#include "stats/route_log.hpp"
#include "stats/timeseries.hpp"

namespace rcsim {

class Network;

/// Packet-event tallies, split by cause. Data and control planes are
/// counted separately so routing messages don't pollute Figure 3/4 numbers.
struct PacketCounters {
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropNoRoute = 0;
  std::uint64_t dropTtl = 0;
  std::uint64_t dropQueue = 0;
  std::uint64_t dropLinkDown = 0;
  std::uint64_t dropInFlightCut = 0;
  std::uint64_t dropLoss = 0;     ///< DropReason::RandomLoss (fault injection)
  std::uint64_t dropCorrupt = 0;  ///< DropReason::Corrupted (fault injection)

  [[nodiscard]] std::uint64_t totalDropped() const {
    return dropNoRoute + dropTtl + dropQueue + dropLinkDown + dropInFlightCut + dropLoss +
           dropCorrupt;
  }
};

/// One-stop instrumentation: a TraceSink that feeds the counters, time
/// series, route-change log and the sender→receiver path walk. Attach it to
/// the network's tracer ahead of any sink that reads pathWalker() live.
class StatsCollector final : public obs::TraceSink {
 public:
  struct Config {
    NodeId sender = kInvalidNode;    ///< Data source (start of the walked path).
    NodeId receiver = kInvalidNode;  ///< Data sink.
  };

  StatsCollector(const Network& net, Config cfg);

  static constexpr std::uint32_t kKinds =
      obs::kindBit(obs::TraceKind::Drop) | obs::kindBit(obs::TraceKind::Forward) |
      obs::kindBit(obs::TraceKind::Deliver) | obs::kindBit(obs::TraceKind::RouteChange) |
      obs::kindBit(obs::TraceKind::ControlSend);
  [[nodiscard]] std::uint32_t kinds() const override { return kKinds; }
  void onTraceEvent(const obs::TraceEvent& ev) override;

  /// Set the failure watermark on all sub-collectors.
  void setFailureWatermark(Time t);

  [[nodiscard]] const PacketCounters& data() const { return data_; }
  [[nodiscard]] const PacketCounters& control() const { return control_; }
  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] const RouteChangeLog& routeLog() const { return routeLog_; }
  [[nodiscard]] RouteChangeLog& routeLog() { return routeLog_; }
  /// The sender→receiver forwarding path across route changes (Figure 6a,
  /// transient paths, loops). Records nothing without both endpoints. The
  /// run's one live walker: the convergence analyzer reads it too.
  [[nodiscard]] const obs::PathWalker& pathWalker() const { return walker_; }

  /// Data packets dropped at/after the watermark, by reason (the paper's
  /// Figures 3 and 4 count only convergence-period drops).
  [[nodiscard]] const PacketCounters& dataAfterWatermark() const { return dataAfter_; }

  /// Delivered packets that had visited some node twice (escaped a loop).
  [[nodiscard]] std::uint64_t loopEscapedDeliveries() const { return loopEscaped_; }

  /// Routing-load accounting (every control payload handed to a link).
  [[nodiscard]] std::uint64_t controlMessages() const { return controlMessages_; }
  [[nodiscard]] std::uint64_t controlBytes() const { return controlBytes_; }
  [[nodiscard]] std::uint64_t controlMessagesAfterWatermark() const {
    return controlMessagesAfter_;
  }

 private:
  void onDrop(const obs::TraceEvent& ev);
  void onDeliver(const obs::TraceEvent& ev);

  PacketCounters data_;
  PacketCounters dataAfter_;
  PacketCounters control_;
  TimeSeries series_;
  RouteChangeLog routeLog_;
  obs::PathWalker walker_;
  Time watermark_ = Time::infinity();
  std::uint64_t loopEscaped_ = 0;
  std::uint64_t controlMessages_ = 0;
  std::uint64_t controlBytes_ = 0;
  std::uint64_t controlMessagesAfter_ = 0;
};

}  // namespace rcsim
