#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/dense.hpp"
#include "net/fib.hpp"
#include "net/packet.hpp"
#include "net/routing_protocol.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rcsim {

class Network;
class Link;
class Scheduler;

/// A router (or degree-1 host stub). Forwards data packets hop-by-hop
/// according to its FIB, decrementing TTL, and hands control packets to its
/// routing protocol — exactly the hop-by-hop model of the paper's §4.
class Node {
 public:
  Node(Network& net, NodeId id, Rng rng);
  // The FIB holds a pointer to neighbors(), so a Node stays where it was made.
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  Node(Node&&) = delete;
  Node& operator=(Node&&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] Scheduler& scheduler();
  [[nodiscard]] Rng& rng() { return rng_; }

  void setProtocol(std::unique_ptr<RoutingProtocol> proto) { proto_ = std::move(proto); }
  [[nodiscard]] RoutingProtocol* protocol() { return proto_.get(); }

  /// Called by Network when a link is attached.
  void attachLink(Link& link);

  [[nodiscard]] const std::vector<NodeId>& neighbors() const { return neighborIds_; }
  [[nodiscard]] Link* linkTo(NodeId neighbor) const;
  /// True when the link to `neighbor` exists and is currently up.
  [[nodiscard]] bool neighborReachable(NodeId neighbor) const;

  /// Slot of `neighbor` in neighbors() order (-1 when not attached). Lets
  /// protocols keep per-neighbor tables in flat degree-sized arrays.
  [[nodiscard]] int neighborSlot(NodeId neighbor) const { return nbrIndex_.slotOf(neighbor); }
  /// The sorted (id -> slot) index over this node's neighbors.
  [[nodiscard]] const NeighborIndex& neighborIndex() const { return nbrIndex_; }

  /// Install/replace the route toward `dst`; kInvalidNode removes it.
  /// Fires a RouteChange trace event when the next hop changes. Throws
  /// std::logic_error, leaving the FIB as it was, when `nextHop` is not an
  /// attached neighbor (this node included).
  void setRoute(NodeId dst, NodeId nextHop);

  /// setRoute() by neighbor slot (Fib::kNoSlot removes the route), for a
  /// protocol that already holds the slot.
  void setRouteBySlot(NodeId dst, std::uint8_t slot);

  /// Install a multi-next-hop entry set toward `dst` (nextHops[0] is the
  /// primary; count 0 removes the route). The RouteChange event fires only
  /// when the *primary* changes — alternates are a data-plane refinement
  /// invisible to the RouteChange event stream (docs/routing-state.md).
  /// Throws like setRoute() on a next hop that is not attached.
  void setRoutes(NodeId dst, const NodeId* nextHops, int count);

  /// Remove every installed route (fault injection: a crashed node loses
  /// its FIB). Emits one RouteChange per removed entry.
  void clearRoutes();
  [[nodiscard]] const Fib& fib() const { return fib_; }
  /// Size the FIB and bind it to neighbors(), whose order must not change.
  void resizeFib(std::size_t nodeCount, bool ecmp = false) {
    fib_.resize(nodeCount, neighborIds_, ecmp);
  }

  /// Application-layer origination (TTL already set, not decremented here):
  /// parks the packet in the network's slab and routes its handle.
  void originate(Packet&& p);

  /// Register an application sink: every data packet delivered to this
  /// node is offered to each handler (after the Deliver trace event).
  /// Used by the end-to-end transport in traffic/.
  void addDeliveryHandler(std::function<void(const Packet&)> handler) {
    deliveryHandlers_.push_back(std::move(handler));
  }

  /// The parked packet `h` arrived over the link from `from`. The node
  /// forwards it, or releases it once delivered, dropped or consumed.
  void receive(PacketHandle h, NodeId from);

  /// Send a routing/transport payload to a directly connected neighbor.
  /// `extraBytes` accounts for IP/UDP framing around the payload.
  void sendControl(NodeId neighbor, std::shared_ptr<const ControlPayload> payload,
                   std::uint32_t extraBytes = 28);

  /// Failure-detector callbacks (invoked by Link after the detection delay).
  void handleLinkDown(NodeId neighbor);
  void handleLinkUp(NodeId neighbor);

 private:
  void route(PacketHandle h);
  /// The FIB slot of `nextHop` (Fib::kNoSlot for kInvalidNode); throws
  /// std::logic_error when it is not attached.
  [[nodiscard]] std::uint8_t slotForRoute(NodeId dst, NodeId nextHop) const;
  void deliverLocally(PacketHandle h);

  Network& net_;
  NodeId id_;
  Rng rng_;
  Fib fib_;
  std::unique_ptr<RoutingProtocol> proto_;
  std::vector<NodeId> neighborIds_;  ///< attachment order; index = slot
  std::vector<Link*> linkBySlot_;    ///< parallel to neighborIds_
  NeighborIndex nbrIndex_;
  std::vector<std::function<void(const Packet&)>> deliveryHandlers_;
};

}  // namespace rcsim
