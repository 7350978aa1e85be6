#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"

namespace rcsim::fault {

/// One invariant violation, with enough context to debug it: simulation
/// time, the node involved, and the events that led up to it.
struct Violation {
  Time at = Time::zero();
  NodeId node = kInvalidNode;
  std::string invariant;  ///< Stable machine-readable name.
  std::string detail;     ///< Human-readable specifics.
  /// The checker's last events before the triggering one (at most
  /// InvariantChecker::kTrailLength), oldest first.
  std::vector<obs::TraceEvent> trail;

  [[nodiscard]] std::string format() const;
};

/// Runtime invariant checker: a TraceSink on the network's tracer.
///
/// Checked continuously:
///   packet-conservation   delivered + dropped never exceeds originated
///                         (data plane; in-flight is the difference)
///   transmit-on-down-link a link started a transmission while down
///   ttl-exhausted-forward a node forwarded a packet with TTL <= 0
///   fib-invalid-nexthop   a route points at self or a non-attached node
///
/// Checked by finalCheck():
///   the FIB scan above over every (node, dst) pair, plus a final
///   conservation recheck.
///
/// TTL-expiry drops are additionally attributed to the protocol running at
/// the dropping node (loopsByProtocol) — loops are legal transients, so
/// they are diagnostics, not violations.
///
/// The trail behind each violation is a fixed ring of the last
/// kTrailLength events the checker consumed; nothing is formatted until a
/// violation is printed.
class InvariantChecker final : public obs::TraceSink {
 public:
  static constexpr std::size_t kTrailLength = 16;

  explicit InvariantChecker(Network& net) : net_{net} {}

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  static constexpr std::uint32_t kKinds =
      obs::kindBit(obs::TraceKind::Originate) | obs::kindBit(obs::TraceKind::Forward) |
      obs::kindBit(obs::TraceKind::Drop) | obs::kindBit(obs::TraceKind::Deliver) |
      obs::kindBit(obs::TraceKind::RouteChange) | obs::kindBit(obs::TraceKind::LinkDown) |
      obs::kindBit(obs::TraceKind::LinkUp) | obs::kindBit(obs::TraceKind::DownLinkTransmit);
  [[nodiscard]] std::uint32_t kinds() const override { return kKinds; }
  void onTraceEvent(const obs::TraceEvent& ev) override;

  /// Full end-of-run sweep: every FIB entry plus conservation.
  void finalCheck(Time at);

  [[nodiscard]] bool clean() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& loopsByProtocol() const {
    return loopsByProtocol_;
  }

  /// All violations formatted into one report ("" when clean).
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] std::uint64_t originated() const { return originated_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  static constexpr std::size_t kMaxViolations = 64;  ///< One bug floods fast.

  void check(const obs::TraceEvent& ev);
  void record(Time at, NodeId node, const char* invariant, std::string detail);
  void checkConservation(Time at);
  void checkFibEntry(Time at, NodeId node, NodeId dst, NodeId nh);

  Network& net_;
  std::array<obs::TraceEvent, kTrailLength> trail_{};
  std::uint64_t trailPushed_ = 0;  ///< events ever written into trail_
  std::vector<Violation> violations_;
  std::map<std::string, std::uint64_t> loopsByProtocol_;
  std::uint64_t originated_ = 0;  ///< Data packets only.
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace rcsim::fault
