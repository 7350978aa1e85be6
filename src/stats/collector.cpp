#include "stats/collector.hpp"

#include <unordered_set>

#include "net/network.hpp"
#include "net/packet.hpp"

namespace rcsim {
namespace {

bool hasRepeatedNode(const std::vector<NodeId>& trace) {
  std::unordered_set<NodeId> seen;
  for (const NodeId n : trace) {
    if (!seen.insert(n).second) return true;
  }
  return false;
}

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

StatsCollector::StatsCollector(Network& net, Config cfg)
    : net_{net}, walker_{cfg.sender, cfg.receiver, net.nodeCount()} {
  routeLog_.resize(net.nodeCount());
}

void StatsCollector::setFailureWatermark(Time t) {
  watermark_ = t;
  routeLog_.setWatermark(t);
}

void StatsCollector::install() {
  auto& hooks = net_.hooks();
  hooks.onDrop = [this](Time t, NodeId where, const Packet& p, DropReason r) {
    onDrop(t, where, p, r);
  };
  hooks.onDeliver = [this](Time t, NodeId node, const Packet& p) { onDeliver(t, node, p); };
  hooks.onForward = [this](Time, NodeId, const Packet& p, NodeId) {
    if (p.kind == PacketKind::Data) ++data_.forwarded;
  };
  hooks.onRouteChange = [this](Time t, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh) {
    routeLog_.record(t, node, dst, oldNh, newNh);
    walker_.onRouteChange(t, node, dst, newNh);
  };
  hooks.onControlSend = [this](Time t, NodeId, NodeId, const ControlPayload& payload) {
    ++controlMessages_;
    controlBytes_ += payload.sizeBytes();
    if (t >= watermark_) ++controlMessagesAfter_;
  };
}

void StatsCollector::onDrop(Time t, NodeId where, const Packet& p, DropReason reason) {
  if (p.kind != PacketKind::Data) {
    bump(control_, reason);
    return;
  }
  (void)where;
  bump(data_, reason);
  if (t >= watermark_) bump(dataAfter_, reason);
}

void StatsCollector::onDeliver(Time t, NodeId /*node*/, const Packet& p) {
  if (p.kind != PacketKind::Data) return;
  ++data_.delivered;
  const double delay = (t - p.sendTime).toSeconds();
  const bool looped = p.trace != nullptr && hasRepeatedNode(*p.trace);
  if (looped) ++loopEscaped_;
  series_.recordDelivery(t, delay, looped, p.trace ? p.trace->size() - 1 : 0);
}

}  // namespace rcsim
