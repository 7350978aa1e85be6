#pragma once

// The run's one tally: every packet fate, control message, hello, DV send
// and MRAI timer the trace stream reports is counted here, once. RunResult
// reads the tally directly; the convergence analyzer (obs/anatomy.hpp)
// keeps no counters of its own and cuts this tally into episodes by
// differencing snapshots of it.

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/fields.hpp"
#include "net/types.hpp"
#include "obs/path_walk.hpp"
#include "obs/trace.hpp"
#include "stats/route_log.hpp"
#include "stats/timeseries.hpp"

namespace rcsim {

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

  /// Every drop reason: the sum of the fields named drop*.
  [[nodiscard]] std::uint64_t totalDropped() const;

  friend bool operator==(const PacketCounters&, const PacketCounters&) = default;
};

/// PacketCounters' field table (core/fields.hpp). The JSON form is a
/// positional array in this order; the fingerprint writes the pinned
/// fields as one comma list, so the two fault-injection drops stay out.
template <FieldsOf<PacketCounters> C, class V>
void forEachField(C& c, V&& v) {
  v("delivered", c.delivered, kFingerprinted);
  v("forwarded", c.forwarded, kFingerprinted);
  v("dropNoRoute", c.dropNoRoute, kFingerprinted);
  v("dropTtl", c.dropTtl, kFingerprinted);
  v("dropQueue", c.dropQueue, kFingerprinted);
  v("dropLinkDown", c.dropLinkDown, kFingerprinted);
  v("dropInFlightCut", c.dropInFlightCut, kFingerprinted);
  v("dropLoss", c.dropLoss, kUnpinned);
  v("dropCorrupt", c.dropCorrupt, kUnpinned);
}

inline std::uint64_t PacketCounters::totalDropped() const {
  std::uint64_t total = 0;
  forEachField(*this, [&total](std::string_view name, std::uint64_t n, auto) {
    if (name.starts_with("drop")) total += n;
  });
  return total;
}

/// One-stop instrumentation: a TraceSink that feeds the tally, the time
/// series, the route-change log and the sender→receiver path walk. Attach
/// it to the network's tracer ahead of any sink that reads it live.
class StatsCollector final : public obs::TraceSink {
 public:
  struct Config {
    NodeId sender = kInvalidNode;    ///< Data source (start of the walked path).
    NodeId receiver = kInvalidNode;  ///< Data sink.
    Time end = Time::zero();         ///< The time series covers [0, end).
  };

  /// The whole-run counts, as one plain value: the convergence analyzer
  /// snapshots it at each episode trigger and bills an episode the
  /// difference to the next snapshot.
  struct Tally {
    PacketCounters data;
    /// Data TTL drops while the walked sender→receiver path loops: the
    /// loop's kills, a subset of data.dropTtl.
    std::uint64_t dropTtlInLoop = 0;
    std::uint64_t controlMessages = 0;  ///< every control payload handed to a link
    std::uint64_t controlBytes = 0;
    std::uint64_t helloMessages = 0;
    std::uint64_t helloBytes = 0;
    std::uint64_t dvTriggered = 0;  ///< triggered-update flushes
    std::uint64_t dvPeriodic = 0;
    std::uint64_t mraiArmed = 0;
    std::uint64_t mraiFired = 0;
  };

  /// `nodeCount` sizes the path walk and the per-node control counts.
  StatsCollector(std::size_t nodeCount, Config cfg);

  static constexpr std::uint32_t kKinds =
      obs::kindBit(obs::TraceKind::Drop) | obs::kindBit(obs::TraceKind::Forward) |
      obs::kindBit(obs::TraceKind::Deliver) | obs::kindBit(obs::TraceKind::RouteChange) |
      obs::kindBit(obs::TraceKind::ControlSend) | obs::kindBit(obs::TraceKind::HelloSend) |
      obs::kindBit(obs::TraceKind::DvTriggered) | obs::kindBit(obs::TraceKind::DvPeriodic) |
      obs::kindBit(obs::TraceKind::MraiArm) | obs::kindBit(obs::TraceKind::MraiFire);
  [[nodiscard]] std::uint32_t kinds() const override { return kKinds; }
  void onTraceEvent(const obs::TraceEvent& ev) override;

  /// Set the failure watermark on all sub-collectors.
  void setFailureWatermark(Time t);

  [[nodiscard]] const Tally& tally() const { return tally_; }
  [[nodiscard]] const PacketCounters& data() const { return tally_.data; }
  [[nodiscard]] const PacketCounters& control() const { return control_; }
  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] const RouteChangeLog& routeLog() const { return routeLog_; }
  /// The sender→receiver forwarding path across route changes (Figure 6a,
  /// transient paths, loops). Records nothing without both endpoints. The
  /// run's one walker: the convergence analyzer reads it too.
  [[nodiscard]] const obs::PathWalker& pathWalker() const { return walker_; }

  /// Data packets dropped at/after the watermark, by reason (the paper's
  /// Figures 3 and 4 count only convergence-period drops).
  [[nodiscard]] const PacketCounters& dataAfterWatermark() const { return dataAfter_; }

  /// Delivered packets that had visited some node twice (escaped a loop).
  [[nodiscard]] std::uint64_t loopEscapedDeliveries() const { return loopEscaped_; }

  /// Control messages handed to a link at/after the watermark.
  [[nodiscard]] std::uint64_t controlMessagesAfterWatermark() const {
    return controlMessagesAfter_;
  }

  /// Control messages and bytes (hellos included) billed to their sender,
  /// indexed by node; senders outside 0..nodeCount-1 are not billed.
  [[nodiscard]] const std::vector<std::uint64_t>& perNodeControlMessages() const {
    return perNodeMessages_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& perNodeControlBytes() const {
    return perNodeBytes_;
  }

 private:
  void onDrop(const obs::TraceEvent& ev);
  void onDeliver(const obs::TraceEvent& ev);
  void billSender(const obs::TraceEvent& ev);

  Tally tally_;
  PacketCounters dataAfter_;
  PacketCounters control_;
  TimeSeries series_;
  RouteChangeLog routeLog_;
  obs::PathWalker walker_;
  Time watermark_ = Time::infinity();
  std::uint64_t loopEscaped_ = 0;
  std::uint64_t controlMessagesAfter_ = 0;
  std::vector<std::uint64_t> perNodeMessages_;
  std::vector<std::uint64_t> perNodeBytes_;
};

}  // namespace rcsim
