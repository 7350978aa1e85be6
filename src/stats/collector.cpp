#include "stats/collector.hpp"

namespace rcsim {
namespace {

void bump(PacketCounters& c, DropReason reason) {
  switch (reason) {
    case DropReason::NoRoute: ++c.dropNoRoute; break;
    case DropReason::TtlExpired: ++c.dropTtl; break;
    case DropReason::QueueOverflow: ++c.dropQueue; break;
    case DropReason::LinkDown: ++c.dropLinkDown; break;
    case DropReason::InFlightCut: ++c.dropInFlightCut; break;
    case DropReason::RandomLoss: ++c.dropLoss; break;
    case DropReason::Corrupted: ++c.dropCorrupt; break;
  }
}

}  // namespace

StatsCollector::StatsCollector(std::size_t nodeCount, Config cfg)
    : series_{cfg.end},
      walker_{cfg.sender, cfg.receiver, nodeCount},
      perNodeMessages_(nodeCount, 0),
      perNodeBytes_(nodeCount, 0) {}

void StatsCollector::setFailureWatermark(Time t) {
  watermark_ = t;
  routeLog_.setWatermark(t);
}

void StatsCollector::onTraceEvent(const obs::TraceEvent& ev) {
  switch (ev.kind) {
    case obs::TraceKind::Drop: onDrop(ev); break;
    case obs::TraceKind::Deliver: onDeliver(ev); break;
    case obs::TraceKind::Forward: ++tally_.data.forwarded; break;  // data packets only
    case obs::TraceKind::RouteChange: {
      routeLog_.record(ev.t);
      // A dst beyond NodeId's range is as corrupt as one beyond N, which
      // the walker rejects.
      const NodeId dst =
          ev.x == static_cast<NodeId>(ev.x) ? static_cast<NodeId>(ev.x) : kInvalidNode;
      walker_.onRouteChange(ev.t, ev.a, dst, static_cast<NodeId>(ev.z));
      break;
    }
    case obs::TraceKind::ControlSend:
      ++tally_.controlMessages;
      tally_.controlBytes += static_cast<std::uint64_t>(ev.x);
      if (ev.t >= watermark_) ++controlMessagesAfter_;
      billSender(ev);
      break;
    case obs::TraceKind::HelloSend:
      ++tally_.helloMessages;
      tally_.helloBytes += static_cast<std::uint64_t>(ev.x);
      billSender(ev);
      break;
    case obs::TraceKind::DvTriggered: ++tally_.dvTriggered; break;
    case obs::TraceKind::DvPeriodic: ++tally_.dvPeriodic; break;
    case obs::TraceKind::MraiArm: ++tally_.mraiArmed; break;
    case obs::TraceKind::MraiFire: ++tally_.mraiFired; break;
    default: break;
  }
}

void StatsCollector::billSender(const obs::TraceEvent& ev) {
  const auto from = static_cast<std::size_t>(ev.a);
  if (from >= perNodeMessages_.size()) return;
  ++perNodeMessages_[from];
  perNodeBytes_[from] += static_cast<std::uint64_t>(ev.x);
}

void StatsCollector::onDrop(const obs::TraceEvent& ev) {
  const auto reason = static_cast<DropReason>(ev.y);
  if (ev.z != 1) {  // z flags the data plane
    bump(control_, reason);
    return;
  }
  bump(tally_.data, reason);
  if (ev.t >= watermark_) bump(dataAfter_, reason);
  // A TTL death while the walked path loops is the loop's kill.
  const auto& paths = walker_.events();
  if (reason == DropReason::TtlExpired && !paths.empty() && paths.back().loop) {
    ++tally_.dropTtlInLoop;
  }
}

void StatsCollector::onDeliver(const obs::TraceEvent& ev) {
  // Deliver is data-only; b flags a hop record that visited a node twice.
  ++tally_.data.delivered;
  if (ev.b != 0) ++loopEscaped_;
  series_.recordDelivery(ev.t, (ev.t - Time::nanoseconds(ev.y)).toSeconds());
}

}  // namespace rcsim
