#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rcsim::fault {

FaultInjector::FaultInjector(Network& net, FaultPlan plan, ProtocolFactory factory,
                             std::vector<Flow> flows, Rng& pathRng, std::uint64_t seed)
    : net_{net},
      plan_{std::move(plan)},
      factory_{std::move(factory)},
      flows_{std::move(flows)},
      pathRng_{pathRng},
      churnRng_{seed * 7919 + 13} {
  const NodeId dst = flows_.empty() ? kInvalidNode : flows_.front().receiver;
  const auto resolve = [dst](NodeId& n) {
    if (n == kFlowDst) n = dst;
  };
  for (auto& ev : plan_.events) {
    resolve(ev.a);
    resolve(ev.b);
    for (auto& g : ev.group) resolve(g);
  }
}

void FaultInjector::install() {
  auto& sched = net_.scheduler();
  // plan_ is never modified after construction, so events are referenced
  // in place (churn cycles keep using theirs for the rest of the run).
  for (const auto& ev : plan_.events) {
    sched.scheduleAt(ev.at, EventKind::Fault, [this, &ev] { apply(ev); });
  }
}

Link& FaultInjector::mustFindLink(NodeId a, NodeId b) const {
  Link* l = net_.findLink(a, b);
  if (l == nullptr) {
    throw std::runtime_error("fault-plan: no link " + std::to_string(a) + "-" +
                             std::to_string(b) + " in this topology");
  }
  return *l;
}

void FaultInjector::mustFindNode(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= net_.nodeCount()) {
    throw std::runtime_error("fault-plan: no node " + std::to_string(n) + " in this topology");
  }
}

void FaultInjector::eachTargetLink(const FaultEvent& ev, const std::function<void(Link&)>& fn) {
  if (ev.allLinks) {
    for (const auto& l : net_.links()) fn(*l);
    return;
  }
  fn(mustFindLink(ev.a, ev.b));
}

void FaultInjector::apply(const FaultEvent& ev) {
  // Fires exactly once, before the first plan event mutates anything — the
  // scenario layer snapshots pre-fault routing state here.
  if (onFirstFault_) {
    auto cb = std::move(onFirstFault_);
    onFirstFault_ = nullptr;
    cb();
  }
  if (ev.pathFlow != kNoPathFlow) {
    failOnPath(ev);
    return;
  }
  net_.trace().emit(net_.scheduler().now(), obs::TraceKind::FaultApply, ev.a, ev.b,
                    static_cast<std::int64_t>(ev.kind));
  switch (ev.kind) {
    case FaultKind::LinkFail:
      failLink(mustFindLink(ev.a, ev.b));
      break;
    case FaultKind::LinkRecover:
      recoverLink(mustFindLink(ev.a, ev.b));
      break;
    case FaultKind::NodeCrash:
      crash(ev.a);
      break;
    case FaultKind::NodeRestart:
      restart(ev.a);
      break;
    case FaultKind::LinkLoss:
      eachTargetLink(ev, [&](Link& l) { l.setLossRate(ev.rate); });
      break;
    case FaultKind::LinkCorrupt:
      eachTargetLink(ev, [&](Link& l) { l.setCorruptRate(ev.rate); });
      break;
    case FaultKind::LinkReorder:
      eachTargetLink(ev, [&](Link& l) { l.setReorder(ev.rate, ev.jitter); });
      break;
    case FaultKind::DetectDelay:
      mustFindLink(ev.a, ev.b).setDetectDelay(ev.detect);
      break;
    case FaultKind::Partition:
      partition(ev.group);
      break;
    case FaultKind::Heal:
      heal(ev.group);
      break;
    case FaultKind::CtrlLoss:
      eachTargetLink(ev, [&](Link& l) { l.setCtrlLossRate(ev.rate); });
      break;
    case FaultKind::CtrlDelay:
      eachTargetLink(ev, [&](Link& l) { l.setCtrlDelay(ev.jitter); });
      break;
    case FaultKind::CtrlDup:
      eachTargetLink(ev, [&](Link& l) { l.setCtrlDupRate(ev.rate); });
      break;
    case FaultKind::FlapBurst:
      flapBurst(ev);
      break;
    case FaultKind::Churn:
      for (const auto& l : net_.links()) armChurn(ev, *l, ev.at);
      break;
  }
}

Link* FaultInjector::drawLinkOnPath(NodeId src, NodeId dst) {
  bool loop = false;
  bool blackhole = false;
  std::vector<NodeId> path = net_.fibWalk(src, dst, &loop, &blackhole);
  if (loop || blackhole || path.size() < 2) {
    // Degenerate (mid-convergence) state; fall back to the true shortest
    // live path, if any.
    path = net_.shortestPathLive(src, dst);
  }
  if (path.size() < 2) return nullptr;
  // Avoid re-failing a dead hop: collect live links along the path.
  std::vector<Link*> candidates;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Link* l = net_.findLink(path[i], path[i + 1]);
    if (l != nullptr && l->isUp()) candidates.push_back(l);
  }
  if (candidates.empty()) return nullptr;
  const auto pick = pathRng_.uniformInt(0, static_cast<std::int64_t>(candidates.size()) - 1);
  return candidates[static_cast<std::size_t>(pick)];
}

void FaultInjector::failOnPath(const FaultEvent& ev) {
  if (static_cast<std::size_t>(ev.pathFlow) >= flows_.size()) {
    throw std::runtime_error("fault-plan: no flow " + std::to_string(ev.pathFlow) +
                             " in this scenario");
  }
  const Flow& flow = flows_[static_cast<std::size_t>(ev.pathFlow)];
  if (ev.pathFlow == 0 && !preFailCaptured_) {
    preFailCaptured_ = true;
    bool loop = false;
    bool blackhole = false;
    const auto path = net_.fibWalk(flow.sender, flow.receiver, &loop, &blackhole);
    if (!loop && !blackhole && path.size() >= 2) {
      preFailHops_ = static_cast<int>(path.size()) - 1;
      preFailShortest_ = preFailHops_ == net_.shortestDistLive(flow.sender, flow.receiver);
    }
  }
  Link* link = drawLinkOnPath(flow.sender, flow.receiver);
  if (link == nullptr) {
    if (pathCuts_.empty()) {
      throw std::runtime_error("no usable sender->receiver path at failure time");
    }
    return;  // an overlapping failure found nothing to cut
  }
  auto& sched = net_.scheduler();
  net_.trace().emit(sched.now(), obs::TraceKind::FaultApply, link->endpointA(),
                    link->endpointB(), static_cast<std::int64_t>(ev.kind));
  pathCuts_.push_back(link);
  failLink(*link);
  if (ev.repair < Time::infinity()) {
    sched.scheduleAfter(ev.repair, EventKind::Fault, [this, link] { recoverLink(*link); });
  }
}

void FaultInjector::failLink(Link& l) {
  if (l.isUp()) ++linkFailures_;
  l.fail();
}

void FaultInjector::recoverLink(Link& l) {
  if (!l.isUp()) ++linkRecoveries_;
  l.recover();
}

void FaultInjector::armChurn(const FaultEvent& ev, Link& link, Time notBefore) {
  const Time at = notBefore + Time::seconds(churnRng_.exponential(ev.mtbf));
  if (at >= ev.stop) return;
  auto& sched = net_.scheduler();
  sched.scheduleAt(at, EventKind::Fault, [this, &ev, &link, &sched] {
    if (!link.isUp()) {
      // Down through some other fault: re-arm instead of ending this
      // link's cycle for good.
      armChurn(ev, link, sched.now());
      return;
    }
    failLink(link);
    const Time repairAt = sched.now() + Time::seconds(churnRng_.exponential(ev.mttr));
    sched.scheduleAt(repairAt, EventKind::Fault, [this, &ev, &link, &sched] {
      // Already recovered by another fault: nothing to recover, but the
      // cycle stays alive.
      recoverLink(link);
      armChurn(ev, link, sched.now());
    });
  });
}

void FaultInjector::flapBurst(const FaultEvent& ev) {
  Link& l = mustFindLink(ev.a, ev.b);  // validate the reference up front
  auto& sched = net_.scheduler();
  const double period = ev.period.toSeconds();
  // Cycle k: fail at k*period, recover half a period later. Failing a link
  // someone else already took down (or recovering one independently failed)
  // is a no-op, mirroring the LinkFail/LinkRecover event semantics.
  for (int k = 0; k < ev.count; ++k) {
    sched.scheduleAfter(Time::seconds(period * k), EventKind::Fault,
                        [this, &l] { failLink(l); });
    sched.scheduleAfter(Time::seconds(period * k + period / 2.0), EventKind::Fault,
                        [this, &l] { recoverLink(l); });
  }
}

void FaultInjector::crash(NodeId n) {
  mustFindNode(n);
  if (downNodes_.count(n) != 0) return;
  Node& node = net_.node(n);
  // Salvage the dying protocol's transport counters for end-of-run totals,
  // then destroy it — RIB, timers and sessions all go with it.
  if (auto* proto = node.protocol()) {
    const auto tc = proto->transportCounters();
    lostTransport_.retransmissions += tc.retransmissions;
    lostTransport_.sessionResets += tc.sessionResets;
  }
  node.setProtocol(nullptr);
  // A crashed router's interfaces go dark: fail every up link, remembering
  // which ones so restart only recovers what the crash took down.
  auto& took = crashTookDown_[n];
  took.clear();
  for (const NodeId nb : node.neighbors()) {
    Link* l = node.linkTo(nb);
    if (l != nullptr && l->isUp()) {
      took.push_back(l);
      failLink(*l);
    }
  }
  node.clearRoutes();
  downNodes_.insert(n);
  ++nodeCrashes_;
}

void FaultInjector::restart(NodeId n) {
  mustFindNode(n);
  if (downNodes_.count(n) == 0) return;
  Node& node = net_.node(n);
  for (Link* l : crashTookDown_[n]) recoverLink(*l);
  crashTookDown_.erase(n);
  downNodes_.erase(n);
  if (factory_) {
    node.setProtocol(factory_(node));
    node.protocol()->start();  // cold boot: empty RIB, fresh adjacencies
  }
  ++nodeRestarts_;
}

std::string FaultInjector::groupKey(std::vector<NodeId> group) {
  std::sort(group.begin(), group.end());
  std::string key;
  for (const NodeId n : group) key += std::to_string(n) + ",";
  return key;
}

void FaultInjector::partition(const std::vector<NodeId>& group) {
  std::set<NodeId> inside(group.begin(), group.end());
  auto& cut = partitionCut_[groupKey(group)];
  for (const auto& l : net_.links()) {
    const bool aIn = inside.count(l->endpointA()) != 0;
    const bool bIn = inside.count(l->endpointB()) != 0;
    if (aIn != bIn && l->isUp()) {
      cut.push_back(l.get());
      failLink(*l);
    }
  }
}

void FaultInjector::heal(const std::vector<NodeId>& group) {
  const auto it = partitionCut_.find(groupKey(group));
  if (it == partitionCut_.end()) return;
  for (Link* l : it->second) recoverLink(*l);
  partitionCut_.erase(it);
}

}  // namespace rcsim::fault
