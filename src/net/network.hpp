#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/hop_pool.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "obs/trace.hpp"
#include "sim/chunked_pool.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace rcsim {

class HelloDetector;

/// Owns every node and link of one simulated network and wires them to a
/// scheduler. Also provides the topology queries (live shortest paths, FIB
/// walks) the convergence metrics are built on.
class Network {
 public:
  Network(Scheduler& sched, Rng rng);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] obs::Tracer& trace() { return trace_; }
  [[nodiscard]] const obs::Tracer& trace() const { return trace_; }

  /// The network-owned RNG, forked per node at creation; fault injection
  /// draws impairment outcomes from it (single-threaded, deterministic).
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Attach the hello-based failure detector (owned by Scenario). While one
  /// is installed, links stop scheduling their oracle handleLinkDown/Up
  /// notifications — missed/resumed hellos are the only detection signal.
  void setDetector(HelloDetector* det) { detector_ = det; }
  [[nodiscard]] HelloDetector* detector() const { return detector_; }

  /// Packets in flight. park() moves a packet into the slab; links, event
  /// closures and nodes then pass its handle, and whoever ends its trip
  /// (delivery or a drop) releases it together with its hop record. The
  /// reference from packet() stays valid while other packets are parked.
  PacketHandle park(Packet&& p) {
    const auto h = PacketHandle{packets_.acquire()};
    packet(h) = std::move(p);
    return h;
  }
  [[nodiscard]] Packet& packet(PacketHandle h) { return packets_[static_cast<std::uint32_t>(h)]; }
  void release(PacketHandle h) {
    Packet& p = packet(h);
    if (p.hops.held()) {
      hopPool_.release(p.hops.span());
      p.hops = HopRecord{};
    }
    p.payload.reset();
    packets_.release(static_cast<std::uint32_t>(h));
  }
  [[nodiscard]] std::size_t packetsInFlight() const { return packets_.live(); }

  /// A fresh hop record for a data packet sent with `ttl`. It has room for
  /// every node the packet can visit, capped at the node count: a packet
  /// that visits more nodes than there are has repeated one.
  [[nodiscard]] HopRecord openHopRecord(int ttl);
  /// Append `node` to the packet's hop record, if it holds one.
  void recordHop(Packet& p, NodeId node) {
    if (p.hops.held()) hopPool_.record(p.hops.span(), node);
  }
  /// The nodes the packet's hop record kept, in visit order.
  [[nodiscard]] std::span<const NodeId> hopRecord(const Packet& p) const {
    if (!p.hops.held()) return {};
    return hopPool_.kept(p.hops.span());
  }

  // Packet and FIB event emitters. Every observer (stats, anatomy,
  // invariants, recorders) is a TraceSink on trace(), so each event is
  // built once and seen identically by all of them. Originate, Forward and
  // Deliver only ever carry data packets: control packets are handed to a
  // link directly and consumed by the receiving node.
  /// Emit the Drop event of a parked packet and release it.
  void dropPacket(NodeId where, PacketHandle h, DropReason r) {
    const Packet& p = packet(h);
    trace_.emit(sched_.now(), obs::TraceKind::Drop, where, kInvalidNode,
                static_cast<std::int64_t>(p.id), static_cast<std::int64_t>(r),
                p.kind == PacketKind::Data ? 1 : 0);
    release(h);
  }
  void notifyDeliver(Time t, NodeId node, const Packet& p) {
    if (!trace_.wants(obs::TraceKind::Deliver)) return;
    trace_.emit(t, obs::TraceKind::Deliver, node, visitedTwice(p) ? 1 : 0,
                static_cast<std::int64_t>(p.id), p.sendTime.ns(),
                p.hops.held() ? static_cast<std::int64_t>(hopPool_.count(p.hops.span())) : 0);
  }
  void notifyForward(Time t, NodeId node, const Packet& p, NodeId nh) {
    trace_.emit(t, obs::TraceKind::Forward, node, nh, static_cast<std::int64_t>(p.id), p.ttl,
                p.dst);
  }
  void notifyOriginate(Time t, NodeId node, const Packet& p) {
    trace_.emit(t, obs::TraceKind::Originate, node, p.dst, static_cast<std::int64_t>(p.id));
  }
  void notifyRouteChange(Time t, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh) {
    trace_.emit(t, obs::TraceKind::RouteChange, node, kInvalidNode, dst, oldNh, newNh);
  }
  void notifyControlSend(Time t, NodeId from, NodeId to, const ControlPayload& payload) {
    if (controlPayloadTap_) controlPayloadTap_(t, from, to, payload);
    trace_.emit(t, obs::TraceKind::ControlSend, from, to,
                static_cast<std::int64_t>(payload.sizeBytes()));
  }

  /// Test seam: sees every routing/transport payload handed to a link, for
  /// unit tests that assert on message contents a fixed-size TraceEvent
  /// cannot carry. The simulator, tools and benchmarks never set it;
  /// everything else observes through trace().
  using ControlPayloadTap =
      std::function<void(Time, NodeId from, NodeId to, const ControlPayload&)>;
  void setControlPayloadTap(ControlPayloadTap tap) { controlPayloadTap_ = std::move(tap); }

  /// Create a node; ids are dense and assigned in creation order.
  NodeId addNode();
  Link& addLink(NodeId a, NodeId b, const LinkConfig& cfg);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] std::size_t nodeCount() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  [[nodiscard]] Link* findLink(NodeId a, NodeId b) const;

  /// Size every FIB to the final node count. Call after all addNode calls
  /// and before starting protocols. `ecmp` enables multi-next-hop FIB
  /// entries (protocols install equal-cost alternates, the data plane
  /// spreads flows over them); off by default so single-path behavior —
  /// and every golden digest — is untouched. Throws std::invalid_argument
  /// when a node has more than Fib::kMaxPorts (255) neighbors.
  void finalize(bool ecmp = false);

  /// Start every node's routing protocol.
  void startProtocols();

  std::uint64_t nextPacketId() { return nextPacketId_++; }

  /// Shortest path over currently-up links (BFS, unit costs), inclusive of
  /// both endpoints. Empty when unreachable.
  [[nodiscard]] std::vector<NodeId> shortestPathLive(NodeId src, NodeId dst) const;

  /// Hop distance over currently-up links; -1 when unreachable.
  [[nodiscard]] int shortestDistLive(NodeId src, NodeId dst) const;

  /// Walk FIBs from src toward dst. Returns the node sequence; sets *loop
  /// if a node repeats and *blackhole if some node had no route.
  [[nodiscard]] std::vector<NodeId> fibWalk(NodeId src, NodeId dst, bool* loop = nullptr,
                                            bool* blackhole = nullptr) const;

 private:
  /// Did the packet's hop record visit some node twice (it escaped a
  /// loop)? False without a hop record. Marks each hop in visitMark_ with
  /// a fresh epoch, so the test neither copies nor sorts the record.
  [[nodiscard]] bool visitedTwice(const Packet& p);

  Scheduler& sched_;
  Rng rng_;
  obs::Tracer trace_;
  ControlPayloadTap controlPayloadTap_;
  HelloDetector* detector_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::uint64_t nextPacketId_ = 1;
  ChunkedPool<Packet> packets_;  ///< The packet slab, indexed by PacketHandle.
  HopPool hopPool_;
  std::vector<std::uint64_t> visitMark_;  ///< per node: epoch of the last visitedTwice mark
  std::uint64_t visitEpoch_ = 0;
};

}  // namespace rcsim
