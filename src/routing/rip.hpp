#pragma once

#include <cstdint>
#include <vector>

#include "net/dense.hpp"
#include "routing/dv_common.hpp"

namespace rcsim {

/// RIP (RFC 2453 model, paper §3): keeps only the single best route per
/// destination, discarding reachability information learned from other
/// neighbors. When the next hop fails, the router has *no* alternate and
/// must wait for another neighbor's (periodic or triggered) announcement —
/// the source of RIP's long path switch-over period (paper §4.1).
///
/// State is SoA over dense NodeIds (docs/routing-state.md): flat uint16
/// metrics, per-destination refresh times, and a known-destination bitset.
/// The next hop is not stored separately — adopt() installs it into the FIB,
/// whose primary entry stays the single source of truth.
class Rip final : public DvProtocolBase {
 public:
  Rip(Node& node, DvConfig cfg);

  [[nodiscard]] std::string name() const override { return "RIP"; }

  /// Introspection for tests.
  [[nodiscard]] int metricFor(NodeId dst) const override;
  [[nodiscard]] NodeId nextHopFor(NodeId dst) const override;

 protected:
  void processUpdate(NodeId from, const DvUpdate& update) override;
  void neighborDown(NodeId neighbor) override;
  void neighborUp(NodeId neighbor) override;
  [[nodiscard]] std::vector<NodeId> knownDestinations() const override;
  void start() override;

 private:
  void adopt(NodeId dst, int metric, NodeId nextHop);
  void expireStale();

  std::vector<std::uint16_t> metric_;
  std::vector<Time> lastRefresh_;
  /// A lower bound on lastRefresh_ over live routes (known, not this node,
  /// metric below infinity). Refreshes only raise their times, so it holds
  /// until expireStale() rescans and tightens it.
  Time oldestRefresh_;
  NodeBitset known_;  ///< destination ever heard of (stays set once dead)
};

}  // namespace rcsim
