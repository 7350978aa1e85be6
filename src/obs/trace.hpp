#pragma once

// Typed structured event tracing: the one channel through which the
// simulator reports what happens. A TraceEvent is a fixed-size record
// (time, kind, two node ids, three integer payload words); call sites emit
// it through the Tracer owned by Network, which hands it to every attached
// TraceSink in attach order. The stats collector, the convergence analyzer,
// the invariant checker and any recorder are all sinks. A kind no sink
// asks for costs one mask test at the emitter: no strings, no allocation,
// nothing formatted.
//
// The kinds cover the paper's "routing and forwarding trace files"
// (Section 5) plus the transport, failure-detection, fault-injection and
// simulator-summary events that grew since; they enumerate every event
// the replayer (obs/replay.hpp), the convergence analyzer
// (obs/anatomy.hpp) and the rcsim-trace tool understand.

#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace rcsim::obs {

/// Every event the simulator can emit. The numeric values are part of the
/// rcsim-trace-v1 on-disk format: append new kinds at the end, never
/// renumber.
enum class TraceKind : std::uint8_t {
  LinkDown = 0,
  LinkUp = 1,
  RouteChange = 2,   ///< a=node, x=dst, y=old next hop, z=new next hop
  Forward = 3,       ///< a=node, b=next hop, x=packet id, y=ttl, z=dst
  Drop = 4,          ///< a=where, x=packet id, y=DropReason, z=1 if data
  Deliver = 5,       ///< a=node, b=1 if the hop record repeats a node, x=packet id,
                     ///< y=send time ns, z=hops
  Originate = 6,     ///< a=src, b=dst, x=packet id
  ControlSend = 7,   ///< a=from, b=to, x=payload bytes
  TransportRto = 8,  ///< a=node, b=peer, x=in-flight segments, y=rto ns
  TransportReset = 9,  ///< a=node, b=peer, x=max retries exhausted
  BgpBest = 10,      ///< a=node, x=dst, y=best via, z=path length (0=unreachable)
  BgpAdvert = 11,    ///< a=node, b=peer, x=dst, y=advertised path length
  BgpWithdraw = 12,  ///< a=node, b=peer, x=dst
  MraiArm = 13,      ///< a=node, b=peer, x=delay ns, z=dst for per-dest mode else -1
  MraiFire = 14,     ///< a=node, b=peer, x=pending dsts at expiry, z=dst / -1
  DvPeriodic = 15,   ///< a=node, x=destinations announced
  DvTriggered = 16,  ///< a=node, x=changed destinations flushed
  FaultApply = 17,   ///< a,b=target ids, x=FaultKind
  SimSummary = 18,   ///< x=events executed, y=events scheduled, z=pool slots
  HelloSend = 19,    ///< a=from, b=to, x=hello bytes on the wire
  AdjDown = 20,      ///< a=node, b=neighbor, x=1 if the link is actually up (false positive)
  AdjUp = 21,        ///< a=node, b=neighbor
  DownLinkTransmit = 22,  ///< a=from, b=to: a link started transmitting while down (a bug)
};
inline constexpr int kTraceKindCount = 23;

[[nodiscard]] constexpr const char* toString(TraceKind kind) {
  switch (kind) {
    case TraceKind::LinkDown: return "link-down";
    case TraceKind::LinkUp: return "link-up";
    case TraceKind::RouteChange: return "route";
    case TraceKind::Forward: return "forward";
    case TraceKind::Drop: return "drop";
    case TraceKind::Deliver: return "deliver";
    case TraceKind::Originate: return "originate";
    case TraceKind::ControlSend: return "control";
    case TraceKind::TransportRto: return "rto";
    case TraceKind::TransportReset: return "reset";
    case TraceKind::BgpBest: return "bgp-best";
    case TraceKind::BgpAdvert: return "bgp-advert";
    case TraceKind::BgpWithdraw: return "bgp-withdraw";
    case TraceKind::MraiArm: return "mrai-arm";
    case TraceKind::MraiFire: return "mrai-fire";
    case TraceKind::DvPeriodic: return "dv-periodic";
    case TraceKind::DvTriggered: return "dv-triggered";
    case TraceKind::FaultApply: return "fault";
    case TraceKind::SimSummary: return "summary";
    case TraceKind::HelloSend: return "hello";
    case TraceKind::AdjDown: return "adj-down";
    case TraceKind::AdjUp: return "adj-up";
    case TraceKind::DownLinkTransmit: return "down-link-transmit";
  }
  return "?";
}

/// One trace record. 48 bytes, trivially copyable; the x/y/z payload words
/// are interpreted per kind (see the TraceKind comments).
struct TraceEvent {
  Time t{};
  TraceKind kind{};
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// One bit per kind, for TraceSink::kinds().
[[nodiscard]] constexpr std::uint32_t kindBit(TraceKind kind) {
  return 1u << static_cast<unsigned>(kind);
}
inline constexpr std::uint32_t kAllKinds = (1u << kTraceKindCount) - 1;

/// Abstract consumer. Implementations: MemoryTraceSink and FileTraceSink
/// in obs/trace_io.hpp, StatsCollector, ConvergenceAnalyzer and
/// fault::InvariantChecker, plus ad-hoc sinks in tools/tests.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void onTraceEvent(const TraceEvent& ev) = 0;
  /// The kinds this sink needs emitted (kindBit mask; default: all). This
  /// is a demand, not a filter: the Tracer emits the union over its sinks
  /// and every sink sees every emitted event, so a sink that counts kinds
  /// sees exactly the stream a recorder beside it writes. Read once, when
  /// the sink is attached.
  [[nodiscard]] virtual std::uint32_t kinds() const { return kAllKinds; }
};

/// The per-network dispatch point: a short ordered list of borrowed sinks.
/// wants() is one mask test, and emitters guard any costly payload
/// construction behind it.
class Tracer {
 public:
  /// Append a sink (borrowed, not owned); sinks see events in attach order.
  void addSink(TraceSink* sink) {
    sinks_.push_back(sink);
    kinds_ |= sink->kinds();
  }
  /// Detach a sink; a no-op when it is not attached.
  void removeSink(TraceSink* sink) {
    std::erase(sinks_, sink);
    kinds_ = 0;
    for (const TraceSink* s : sinks_) kinds_ |= s->kinds();
  }

  /// The union of the attached sinks' kinds(): what emit() lets through.
  [[nodiscard]] std::uint32_t kinds() const { return kinds_; }
  [[nodiscard]] bool wants(TraceKind kind) const { return (kinds_ & kindBit(kind)) != 0; }

  void emit(const TraceEvent& ev) const {
    if (wants(ev.kind)) dispatch(ev);
  }
  void emit(Time t, TraceKind kind, NodeId a, NodeId b, std::int64_t x = 0, std::int64_t y = 0,
            std::int64_t z = 0) const {
    if (wants(kind)) dispatch(TraceEvent{t, kind, a, b, x, y, z});
  }

 private:
  void dispatch(const TraceEvent& ev) const {
    for (TraceSink* s : sinks_) s->onTraceEvent(ev);
  }

  std::vector<TraceSink*> sinks_;
  std::uint32_t kinds_ = 0;
};

}  // namespace rcsim::obs
