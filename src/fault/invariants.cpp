#include "fault/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "net/fib.hpp"

namespace rcsim::fault {
namespace {

void describe(std::ostream& os, const obs::TraceEvent& ev) {
  using obs::TraceKind;
  os << "t=" << ev.t.toSeconds() << "s ";
  switch (ev.kind) {
    case TraceKind::Originate:
      os << "originate data#" << ev.x << " at " << ev.a << " dst=" << ev.b;
      break;
    case TraceKind::Forward:
      os << "forward data#" << ev.x << " at " << ev.a << " -> " << ev.b << " dst=" << ev.z
         << " ttl=" << ev.y;
      break;
    case TraceKind::Drop:
      os << "drop[" << toString(static_cast<DropReason>(ev.y)) << "] at " << ev.a << " "
         << (ev.z == 1 ? "data" : "ctrl") << "#" << ev.x;
      break;
    case TraceKind::Deliver: os << "deliver data#" << ev.x << " at " << ev.a; break;
    case TraceKind::RouteChange:
      os << "route at " << ev.a << " dst=" << ev.x << " " << ev.y << "->" << ev.z;
      break;
    case TraceKind::LinkDown: os << "link " << ev.a << "-" << ev.b << " down"; break;
    case TraceKind::LinkUp: os << "link " << ev.a << "-" << ev.b << " up"; break;
    default:
      os << toString(ev.kind) << " a=" << ev.a << " b=" << ev.b << " x=" << ev.x << " y=" << ev.y
         << " z=" << ev.z;
      break;
  }
}

}  // namespace

std::string Violation::format() const {
  std::ostringstream os;
  os << "invariant '" << invariant << "' violated at t=" << at.toSeconds() << "s node=" << node
     << ": " << detail;
  if (!trail.empty()) {
    os << "\n  event trail (oldest first):";
    for (const auto& ev : trail) {
      os << "\n    ";
      describe(os, ev);
    }
  }
  return os.str();
}

void InvariantChecker::onTraceEvent(const obs::TraceEvent& ev) {
  check(ev);  // a violation's trail ends with this event's predecessor
  trail_[trailPushed_++ % kTrailLength] = ev;
}

void InvariantChecker::record(Time at, NodeId node, const char* invariant, std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  Violation v;
  v.at = at;
  v.node = node;
  v.invariant = invariant;
  v.detail = std::move(detail);
  const auto kept = static_cast<std::size_t>(std::min<std::uint64_t>(trailPushed_, kTrailLength));
  for (std::uint64_t i = trailPushed_ - kept; i < trailPushed_; ++i) {
    v.trail.push_back(trail_[i % kTrailLength]);
  }
  violations_.push_back(std::move(v));
}

void InvariantChecker::checkConservation(Time at) {
  if (delivered_ + dropped_ <= originated_) return;
  std::ostringstream os;
  os << "delivered(" << delivered_ << ") + dropped(" << dropped_ << ") > originated("
     << originated_ << ")";
  record(at, kInvalidNode, "packet-conservation", os.str());
}

void InvariantChecker::check(const obs::TraceEvent& ev) {
  using obs::TraceKind;
  switch (ev.kind) {
    case TraceKind::Originate: ++originated_; break;  // data packets only
    case TraceKind::Deliver:
      ++delivered_;
      checkConservation(ev.t);
      break;
    case TraceKind::Drop:
      if (ev.z != 1) break;  // z flags the data plane
      ++dropped_;
      checkConservation(ev.t);
      if (static_cast<DropReason>(ev.y) == DropReason::TtlExpired) {
        const auto* proto = net_.node(ev.a).protocol();
        ++loopsByProtocol_[proto != nullptr ? proto->name() : "(no protocol)"];
      }
      break;
    case TraceKind::Forward:
      if (ev.y <= 0) {
        record(ev.t, ev.a, "ttl-exhausted-forward",
               "data#" + std::to_string(ev.x) + " forwarded toward " + std::to_string(ev.b) +
                   " with ttl " + std::to_string(ev.y));
      }
      break;
    case TraceKind::RouteChange:
      if (static_cast<NodeId>(ev.z) != kInvalidNode) {
        checkFibEntry(ev.t, ev.a, static_cast<NodeId>(ev.x), static_cast<NodeId>(ev.z));
      }
      break;
    case TraceKind::DownLinkTransmit:
      record(ev.t, ev.a, "transmit-on-down-link",
             "link " + std::to_string(ev.a) + "-" + std::to_string(ev.b) +
                 " started a transmission while down");
      break;
    default: break;
  }
}

void InvariantChecker::checkFibEntry(Time at, NodeId node, NodeId dst, NodeId nh) {
  if (nh == node) {
    record(at, node, "fib-invalid-nexthop",
           "route for dst " + std::to_string(dst) + " points at the node itself");
    return;
  }
  if (net_.node(node).linkTo(nh) == nullptr) {
    record(at, node, "fib-invalid-nexthop",
           "route for dst " + std::to_string(dst) + " points at " + std::to_string(nh) +
               ", which is not an attached neighbor");
  }
}

void InvariantChecker::finalCheck(Time at) {
  checkConservation(at);
  // Sweep the full entry set, not just the primary: with ECMP on, a stale
  // alternate pointing at a detached neighbor is as much a forwarding bug
  // as a bad primary (the data plane may pick it via the flow hash).
  NodeId hops[Fib::kMaxNextHops];
  for (NodeId n = 0; n < static_cast<NodeId>(net_.nodeCount()); ++n) {
    const auto& fib = net_.node(n).fib();
    for (NodeId dst = 0; dst < static_cast<NodeId>(fib.size()); ++dst) {
      const int count = fib.nextHops(dst, hops);
      for (int k = 0; k < count; ++k) checkFibEntry(at, n, dst, hops[k]);
    }
  }
}

std::string InvariantChecker::summary() const {
  std::string out;
  for (const auto& v : violations_) {
    if (!out.empty()) out += '\n';
    out += v.format();
  }
  if (violations_.size() >= kMaxViolations) {
    out += "\n(further violations suppressed)";
  }
  return out;
}

}  // namespace rcsim::fault
