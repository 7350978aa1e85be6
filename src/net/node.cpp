#include "net/node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/detector.hpp"
#include "net/link.hpp"
#include "net/network.hpp"

namespace rcsim {

Node::Node(Network& net, NodeId id, Rng rng) : net_{net}, id_{id}, rng_{rng} {}

Scheduler& Node::scheduler() { return net_.scheduler(); }

void Node::attachLink(Link& link) {
  const NodeId peer = link.peerOf(id_);
  assert(nbrIndex_.slotOf(peer) < 0);
  nbrIndex_.add(peer, static_cast<int>(neighborIds_.size()));
  neighborIds_.push_back(peer);
  linkBySlot_.push_back(&link);
}

Link* Node::linkTo(NodeId neighbor) const {
  const int slot = nbrIndex_.slotOf(neighbor);
  return slot < 0 ? nullptr : linkBySlot_[static_cast<std::size_t>(slot)];
}

bool Node::neighborReachable(NodeId neighbor) const {
  const Link* l = linkTo(neighbor);
  return l != nullptr && l->isUp();
}

std::uint8_t Node::slotForRoute(NodeId dst, NodeId nextHop) const {
  if (nextHop == kInvalidNode) return Fib::kNoSlot;
  const int slot = nbrIndex_.slotOf(nextHop);
  if (slot < 0) {
    throw std::logic_error("node " + std::to_string(id_) + ": route for dst " +
                           std::to_string(dst) + " via " + std::to_string(nextHop) +
                           ", which is not an attached neighbor");
  }
  return static_cast<std::uint8_t>(slot);
}

void Node::setRoute(NodeId dst, NodeId nextHop) { setRouteBySlot(dst, slotForRoute(dst, nextHop)); }

void Node::setRouteBySlot(NodeId dst, std::uint8_t slot) {
  const std::uint8_t old = fib_.set(dst, slot);
  if (old == slot) return;
  net_.notifyRouteChange(scheduler().now(), id_, dst, fib_.portId(old), fib_.portId(slot));
}

void Node::setRoutes(NodeId dst, const NodeId* nextHops, int count) {
  // Translate every entry the FIB can keep before touching it, so a bad
  // next hop throws with the old entry set intact.
  std::uint8_t slots[Fib::kMaxNextHops];
  const int n = std::clamp(count, 0, Fib::kMaxNextHops);
  for (int k = 0; k < n; ++k) slots[k] = slotForRoute(dst, nextHops[k]);
  const std::uint8_t primary = n > 0 ? slots[0] : Fib::kNoSlot;
  const std::uint8_t old = fib_.setMulti(dst, slots, n);
  if (old == primary) return;
  net_.notifyRouteChange(scheduler().now(), id_, dst, fib_.portId(old), fib_.portId(primary));
}

void Node::clearRoutes() {
  for (NodeId dst = 0; dst < static_cast<NodeId>(fib_.size()); ++dst) {
    setRoute(dst, kInvalidNode);
  }
}

void Node::originate(Packet&& p) {
  const PacketHandle h = net_.park(std::move(p));
  Packet& pk = net_.packet(h);
  net_.recordHop(pk, id_);
  net_.notifyOriginate(scheduler().now(), id_, pk);
  if (pk.dst == id_) {
    deliverLocally(h);
    return;
  }
  route(h);
}

void Node::deliverLocally(PacketHandle h) {
  // A handler may send (a TCP ACK), which parks more packets; the slab
  // keeps `p` where it is meanwhile.
  const Packet& p = net_.packet(h);
  net_.notifyDeliver(scheduler().now(), id_, p);
  for (const auto& handler : deliveryHandlers_) handler(p);
  net_.release(h);
}

void Node::receive(PacketHandle h, NodeId from) {
  Packet& p = net_.packet(h);
  net_.recordHop(p, id_);
  if (p.kind == PacketKind::Control) {
    assert(p.payload);
    std::shared_ptr<const ControlPayload> payload = std::move(p.payload);
    net_.release(h);
    // With hello detection active, every control packet from a neighbor is
    // proof of life; pure hellos stop here, real updates fall through.
    if (HelloDetector* det = net_.detector();
        det != nullptr && det->onControl(*this, from, *payload)) {
      return;
    }
    if (proto_) proto_->onMessage(from, std::move(payload));
    return;
  }
  if (p.dst == id_) {
    deliverLocally(h);
    return;
  }
  // Transit: decrement TTL, then forward if still alive (RFC 791 behaviour;
  // the paper's loop-caused losses show up here as TtlExpired).
  if (--p.ttl <= 0) {
    net_.dropPacket(id_, h, DropReason::TtlExpired);
    return;
  }
  route(h);
}

void Node::route(PacketHandle h) {
  const Packet& p = net_.packet(h);
  // With ECMP the flow's deterministic key picks one member of the entry
  // set; without it (the default) this is exactly the primary lookup.
  const std::uint8_t slot = fib_.ecmpEnabled() ? fib_.pickSlot(p.dst, fibFlowKey(p.src, p.dst))
                                               : fib_.slot(p.dst);
  if (slot == Fib::kNoSlot) {
    net_.dropPacket(id_, h, DropReason::NoRoute);
    return;
  }
  net_.notifyForward(scheduler().now(), id_, p, neighborIds_[slot]);
  linkBySlot_[slot]->send(id_, h);
}

void Node::sendControl(NodeId neighbor, std::shared_ptr<const ControlPayload> payload,
                       std::uint32_t extraBytes) {
  Link* l = linkTo(neighbor);
  assert(l != nullptr);
  Packet p;
  p.id = net_.nextPacketId();
  p.src = id_;
  p.dst = neighbor;
  p.ttl = 1;
  p.kind = PacketKind::Control;
  p.sizeBytes = payload->sizeBytes() + extraBytes;
  p.sendTime = scheduler().now();
  p.payload = std::move(payload);
  net_.notifyControlSend(scheduler().now(), id_, neighbor, *p.payload);
  l->send(id_, net_.park(std::move(p)));
}

void Node::handleLinkDown(NodeId neighbor) {
  if (proto_) proto_->onLinkDown(neighbor);
}

void Node::handleLinkUp(NodeId neighbor) {
  if (proto_) proto_->onLinkUp(neighbor);
}

}  // namespace rcsim
