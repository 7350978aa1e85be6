#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/dense.hpp"
#include "routing/dv_common.hpp"

namespace rcsim {

/// Distributed Bellman-Ford (paper §3): identical to our RIP except that the
/// router caches the latest distance vector learned from *each* neighbor.
/// When the current next hop fails it can immediately switch to the best
/// alternate in the cache — a zero-time path switch-over (paper §4.1) — at
/// the price of possibly choosing an invalid path and "counting to the
/// next-best path" instead of counting to infinity (paper §6).
///
/// State is one dense, destination-major byte table (docs/routing-state.md):
/// the record of destination d holds every neighbor slot's advertised metric
/// followed by the best metric, so merging an entry touches one small
/// contiguous record. An unheard or dead neighbor's column holds infinity.
/// The best next hop is not stored — after every recompute it equals the
/// FIB's primary slot byte, which recompute reads back as the tie-break
/// incumbent and overwrites with the winning neighbor slot directly. Metrics are bytes, so the infinity may not exceed 255 (the
/// constructor throws std::invalid_argument naming dv.infinity otherwise).
class Dbf final : public DvProtocolBase {
 public:
  Dbf(Node& node, DvConfig cfg);

  [[nodiscard]] std::string name() const override { return "DBF"; }

  [[nodiscard]] int metricFor(NodeId dst) const override;
  [[nodiscard]] NodeId nextHopFor(NodeId dst) const override;

  /// Distance to dst as most recently advertised by `neighbor` (infinity if
  /// none) — exposed for tests.
  [[nodiscard]] int cachedMetric(NodeId neighbor, NodeId dst) const;

 protected:
  void processUpdate(NodeId from, const DvUpdate& update) override;
  void neighborDown(NodeId neighbor) override;
  void neighborUp(NodeId neighbor) override;
  void holdDownExpired(NodeId dst) override;
  [[nodiscard]] std::vector<NodeId> knownDestinations() const override;
  void start() override;

 private:
  /// Recompute the best route for dst from its record.
  void recompute(NodeId dst);

  /// dst's record: `stride_ - 1` neighbor-slot metrics, then the best metric.
  [[nodiscard]] std::uint8_t* record(NodeId dst) {
    return table_.data() + static_cast<std::size_t>(dst) * stride_;
  }
  [[nodiscard]] const std::uint8_t* record(NodeId dst) const {
    return table_.data() + static_cast<std::size_t>(dst) * stride_;
  }

  std::vector<std::uint8_t> table_;  ///< nodeCount records of stride_ bytes
  std::size_t stride_ = 1;           ///< degree + 1
  NodeBitset known_;
};

}  // namespace rcsim
