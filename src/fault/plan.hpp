#pragma once

#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace rcsim::fault {

/// What a single timed fault event does to the network.
enum class FaultKind {
  LinkFail,       ///< Take one link down (both directions).
  LinkRecover,    ///< Bring one link back up.
  NodeCrash,      ///< Destroy a node's protocol state and fail its links.
  NodeRestart,    ///< Recreate the protocol (cold RIB) and recover its links.
  LinkLoss,       ///< Set a random-loss rate on a link (or all links).
  LinkCorrupt,    ///< Set a corruption rate on a link (or all links).
  LinkReorder,    ///< Set a reordering rate + jitter on a link (or all links).
  DetectDelay,    ///< Override the failure-detection delay on a link.
  Partition,      ///< Fail every up link crossing a node-group boundary.
  Heal,           ///< Recover the links cut by the matching Partition.
  CtrlLoss,       ///< Set a control-packet-only loss rate on a link (or all).
  CtrlDelay,      ///< Add a fixed delay to control packets on a link (or all).
  CtrlDup,        ///< Set a control-packet duplication rate on a link (or all).
  FlapBurst,      ///< Flap one link n times with the given period.
  Churn,          ///< Every link flaps with exponential up/down times.
};

/// The `dst` node token: flow 0's receiver, resolved by the injector from
/// the scenario it runs in. Lets a plan name the receiver without knowing
/// which node the endpoint draw picked.
inline constexpr NodeId kFlowDst = -2;

/// FaultEvent::pathFlow of an event that names its target explicitly.
inline constexpr int kNoPathFlow = -1;

[[nodiscard]] constexpr const char* toString(FaultKind k) {
  switch (k) {
    case FaultKind::LinkFail: return "fail";
    case FaultKind::LinkRecover: return "recover";
    case FaultKind::NodeCrash: return "crash";
    case FaultKind::NodeRestart: return "restart";
    case FaultKind::LinkLoss: return "loss";
    case FaultKind::LinkCorrupt: return "corrupt";
    case FaultKind::LinkReorder: return "reorder";
    case FaultKind::DetectDelay: return "detect";
    case FaultKind::Partition: return "partition";
    case FaultKind::Heal: return "heal";
    case FaultKind::CtrlLoss: return "ctrl-loss";
    case FaultKind::CtrlDelay: return "ctrl-delay";
    case FaultKind::CtrlDup: return "ctrl-dup";
    case FaultKind::FlapBurst: return "flapburst";
    case FaultKind::Churn: return "churn";
  }
  return "?";
}

/// One timed fault. Which fields matter depends on `kind`:
///   LinkFail                       a-b, or pathFlow (+ repair)
///   LinkRecover                    a-b
///   NodeCrash/NodeRestart          a
///   LinkLoss/LinkCorrupt           a-b (or allLinks) + rate
///   LinkReorder                    a-b (or allLinks) + rate + jitter
///   DetectDelay                    a-b + detect
///   Partition/Heal                 group
///   CtrlLoss/CtrlDup               a-b (or allLinks) + rate
///   CtrlDelay                      a-b (or allLinks) + jitter (the delay)
///   FlapBurst                      a-b + count + period
///   Churn                          mtbf + mttr + stop
/// Any node field may hold kFlowDst.
///
/// A LinkFail with pathFlow >= 0 is the paper's failure: at its time the
/// injector walks that flow's current forwarding path (the live shortest
/// path if the walk loops or dead-ends), fails one live link on it drawn
/// from the scenario RNG, and recovers that link `repair` later when
/// `repair` is finite. Its FaultApply trace record names the cut link.
struct FaultEvent {
  Time at = Time::zero();
  FaultKind kind = FaultKind::LinkFail;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  bool allLinks = false;       ///< LinkLoss/Corrupt/Reorder applied network-wide.
  double rate = 0.0;           ///< Loss / corruption / reorder probability.
  Time jitter = Time::zero();  ///< Extra delay bound for LinkReorder.
  Time detect = Time::zero();  ///< New detection delay for DetectDelay.
  std::vector<NodeId> group;   ///< Partition/Heal node set.
  int count = 0;               ///< FlapBurst: number of fail/recover cycles.
  Time period = Time::zero();  ///< FlapBurst: cycle period (down half, up half).
  double mtbf = 0.0;           ///< Churn: mean seconds a link stays up.
  double mttr = 0.0;           ///< Churn: mean seconds a link stays down.
  Time stop = Time::zero();    ///< Churn: no new failures at or after this.
  int pathFlow = kNoPathFlow;  ///< LinkFail: cut a link on this flow's path.
  Time repair = Time::infinity();  ///< Path LinkFail: recover the cut link this long after.

  bool operator==(const FaultEvent&) const = default;
};

/// A declarative, replayable schedule of fault events over a scenario.
///
/// Text form (the `fault-plan=` option): semicolon-separated events, each
/// `<seconds>:<kind>:<args>`:
///
///   400:fail:24-25          fail link 24-25 at t=400s
///   460:recover:24-25       recover it
///   400:fail:path           fail a live link on flow 0's current path
///   405:fail:path/1         ... on flow 1's path (flows count from 0)
///   400:fail:path:60        ... and recover that link 60s later
///   400:crash:24            crash node 24 (protocol state lost)
///   460:restart:24          restart it with a cold RIB
///   395:loss:*:0.02         2% random loss on every link
///   395:loss:24-25:0.02     ... or on one link
///   395:corrupt:24-25:0.01  1% corruption (drops, counted separately)
///   395:reorder:24-25:0.1:50   10% of packets get up to +50ms delay
///   399:detect:24-25:2000   detection delay becomes 2000ms (silent failure)
///   400:partition:0,1,2     cut the group {0,1,2} off from the rest
///   460:heal:0,1,2          recover exactly the links that cut made
///   395:ctrl-loss:24-25:0.5    half of all control packets lost (data OK)
///   395:ctrl-delay:*:250       control packets gain 250ms everywhere
///   395:ctrl-dup:24-25:0.2     20% of control packets delivered twice
///   400:flapburst:24-25:6:10   flap 24-25 six times: 5s down, 5s up, ...
///   390:churn:120:10:790       every link fails after Exp(120s) up, recovers
///                              after Exp(10s) down; no new failures from 790s
///   400:partition:dst          cut flow 0's receiver off (`dst` is a node token)
///
/// Every number must be finite and within +-1e9. The first `path` failure
/// to fire must find a live link to cut (else the run fails); a later one
/// that finds none does nothing.
///
/// parse(format(p)) == p for every valid plan, so plans round-trip through
/// describeOptions and the rcsim-experiment-v1 JSON artifacts bit-for-bit.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  bool operator==(const FaultPlan&) const = default;

  /// Render to the canonical text form ("" for an empty plan).
  [[nodiscard]] std::string format() const;

  /// Parse the text form; throws std::invalid_argument with a pointer to
  /// the offending event on malformed input. "" parses to the empty plan.
  [[nodiscard]] static FaultPlan parse(const std::string& text);
};

}  // namespace rcsim::fault
