#include "stats/collector.hpp"

#include "net/network.hpp"

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

StatsCollector::StatsCollector(const Network& net, Config cfg)
    : walker_{cfg.sender, cfg.receiver, net.nodeCount()} {
  routeLog_.resize(net.nodeCount());
}

void StatsCollector::setFailureWatermark(Time t) {
  watermark_ = t;
  routeLog_.setWatermark(t);
}

void StatsCollector::onTraceEvent(const obs::TraceEvent& ev) {
  switch (ev.kind) {
    case obs::TraceKind::Drop: onDrop(ev); break;
    case obs::TraceKind::Deliver: onDeliver(ev); break;
    case obs::TraceKind::Forward: ++data_.forwarded; break;  // data packets only
    case obs::TraceKind::RouteChange: {
      const auto dst = static_cast<NodeId>(ev.x);
      const auto newNh = static_cast<NodeId>(ev.z);
      routeLog_.record(ev.t, ev.a, dst, static_cast<NodeId>(ev.y), newNh);
      walker_.onRouteChange(ev.t, ev.a, dst, newNh);
      break;
    }
    case obs::TraceKind::ControlSend:
      ++controlMessages_;
      controlBytes_ += static_cast<std::uint64_t>(ev.x);
      if (ev.t >= watermark_) ++controlMessagesAfter_;
      break;
    default: break;
  }
}

void StatsCollector::onDrop(const obs::TraceEvent& ev) {
  const auto reason = static_cast<DropReason>(ev.y);
  if (ev.z != 1) {  // z flags the data plane
    bump(control_, reason);
    return;
  }
  bump(data_, reason);
  if (ev.t >= watermark_) bump(dataAfter_, reason);
}

void StatsCollector::onDeliver(const obs::TraceEvent& ev) {
  // Deliver is data-only; b flags a hop record that visited a node twice,
  // z is the hop record's length (0 without one).
  ++data_.delivered;
  const double delay = (ev.t - Time::nanoseconds(ev.y)).toSeconds();
  const bool looped = ev.b != 0;
  if (looped) ++loopEscaped_;
  series_.recordDelivery(ev.t, delay, looped, ev.z > 0 ? static_cast<std::size_t>(ev.z - 1) : 0);
}

}  // namespace rcsim
