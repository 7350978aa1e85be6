#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "net/network.hpp"
#include "net/routing_protocol.hpp"
#include "sim/random.hpp"

namespace rcsim::fault {

/// Executes a FaultPlan against a live network: schedules every event and
/// applies it at its simulation time. Owned by the Scenario; stateless
/// between runs (one injector per run).
///
/// Node crashes destroy the protocol instance (RIB and session state are
/// genuinely lost), fail the node's up links, and clear its FIB; restarts
/// rebuild the protocol through the injected factory — the injector knows
/// nothing about which protocol a scenario runs.
///
/// Churn events give every link its own up/down cycle with exponential
/// times, all drawn from one per-run stream seeded from the scenario seed
/// — the steady-failure regime the paper's introduction motivates ("faults
/// of various scale and severity occur frequently", Labovitz et al.).
///
/// `path` failures (FaultEvent::pathFlow) are the paper's own failure: a
/// live link on a flow's then-current forwarding path, drawn from the
/// scenario's RNG. The run's first path failure must find one (a scenario
/// whose flow has no path is broken); a later one that finds none is a
/// no-op that emits nothing.
class FaultInjector {
 public:
  using ProtocolFactory = std::function<std::unique_ptr<RoutingProtocol>(Node&)>;

  struct Flow {
    NodeId sender = kInvalidNode;
    NodeId receiver = kInvalidNode;
  };

  /// `flows` are the scenario's traffic endpoints: `path/<k>` events cut
  /// flow k's path, and flows[0].receiver resolves the kFlowDst token.
  /// `pathRng` is the scenario's RNG, which path failures draw their link
  /// from; `seed` is the scenario seed the churn stream derives from.
  FaultInjector(Network& net, FaultPlan plan, ProtocolFactory factory, std::vector<Flow> flows,
                Rng& pathRng, std::uint64_t seed);

  /// Schedule every plan event on the network's scheduler. Call once,
  /// before Scheduler::run. Malformed references (unknown link/node)
  /// surface as std::runtime_error at the event's simulation time.
  void install();

  /// Invoked once, immediately before the first plan event is applied (at
  /// its simulation time). Lets the scenario snapshot pre-fault state
  /// without scheduling any event of its own.
  void setOnFirstFault(std::function<void()> cb) { onFirstFault_ = std::move(cb); }

  [[nodiscard]] bool nodeDown(NodeId n) const { return downNodes_.count(n) != 0; }

  [[nodiscard]] std::uint64_t linkFailures() const { return linkFailures_; }
  [[nodiscard]] std::uint64_t linkRecoveries() const { return linkRecoveries_; }
  [[nodiscard]] std::uint64_t nodeCrashes() const { return nodeCrashes_; }
  [[nodiscard]] std::uint64_t nodeRestarts() const { return nodeRestarts_; }

  /// Transport counters salvaged from protocols destroyed by crashes, so
  /// end-of-run reporting still sees their retransmission/reset totals.
  [[nodiscard]] RoutingProtocol::TransportCounters lostTransportCounters() const {
    return lostTransport_;
  }

  /// Links cut by path failures so far, in the order they failed.
  [[nodiscard]] const std::vector<Link*>& pathCuts() const { return pathCuts_; }

  /// Flow 0's forwarding path just before its first path failure: its hop
  /// count and whether it was a live shortest path (0/false when that
  /// failure has not fired, or the path looped or dead-ended).
  [[nodiscard]] int preFailurePathHops() const { return preFailHops_; }
  [[nodiscard]] bool preFailurePathShortest() const { return preFailShortest_; }

 private:
  void apply(const FaultEvent& ev);
  /// A path event: cut a live link on flow ev.pathFlow's current path.
  void failOnPath(const FaultEvent& ev);
  /// A live link on src's forwarding path to dst (the live shortest path
  /// when that walk loops or dead-ends), drawn from pathRng_; null if none.
  [[nodiscard]] Link* drawLinkOnPath(NodeId src, NodeId dst);
  /// Fail / recover one link, counting it only if its state changes.
  void failLink(Link& l);
  void recoverLink(Link& l);
  void crash(NodeId n);
  void restart(NodeId n);
  void partition(const std::vector<NodeId>& group);
  void heal(const std::vector<NodeId>& group);
  void flapBurst(const FaultEvent& ev);
  /// Draw `link`'s next churn failure after `notBefore`; none at or past ev.stop.
  void armChurn(const FaultEvent& ev, Link& link, Time notBefore);
  /// Apply `fn` to the event's target link(s); throws on a dangling ref.
  void eachTargetLink(const FaultEvent& ev, const std::function<void(Link&)>& fn);
  [[nodiscard]] Link& mustFindLink(NodeId a, NodeId b) const;
  void mustFindNode(NodeId n) const;
  [[nodiscard]] static std::string groupKey(std::vector<NodeId> group);

  Network& net_;
  FaultPlan plan_;
  ProtocolFactory factory_;
  std::vector<Flow> flows_;
  Rng& pathRng_;
  Rng churnRng_;
  bool preFailCaptured_ = false;
  int preFailHops_ = 0;
  bool preFailShortest_ = false;
  std::vector<Link*> pathCuts_;
  std::function<void()> onFirstFault_;
  std::set<NodeId> downNodes_;
  /// Links this injector took down when crashing a node, to recover on
  /// restart (and only those — independently failed links stay down).
  std::map<NodeId, std::vector<Link*>> crashTookDown_;
  /// Links cut per partition group, to recover on the matching heal.
  std::map<std::string, std::vector<Link*>> partitionCut_;
  RoutingProtocol::TransportCounters lostTransport_;
  std::uint64_t linkFailures_ = 0;
  std::uint64_t linkRecoveries_ = 0;
  std::uint64_t nodeCrashes_ = 0;
  std::uint64_t nodeRestarts_ = 0;
};

}  // namespace rcsim::fault
