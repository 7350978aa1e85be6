#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace rcsim {

/// A simulated IP packet. Data packets carry no payload object; control
/// packets carry a routing/transport payload and are link-local (one hop).
///
/// Fields are ordered widest first so the struct has no padding holes: a
/// packet rides by value inside Link's delivery closures, which must fit
/// the scheduler's inline callback storage.
struct Packet {
  std::uint64_t id = 0;
  Time sendTime;  ///< Origination time (for end-to-end delay).
  std::shared_ptr<const ControlPayload> payload;
  /// When packet tracing is enabled, every node that receives the packet
  /// appends its id; lets the forensics tools detect loops per packet.
  std::shared_ptr<std::vector<NodeId>> trace;
  /// End-to-end flow header (used by the TCP-like traffic extension):
  /// which flow the packet belongs to, its sequence number, and whether it
  /// is a (cumulative) acknowledgement travelling back to the sender.
  std::uint64_t flowSeq = 0;
  std::int32_t flowId = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int ttl = 0;
  std::uint32_t sizeBytes = 0;
  PacketKind kind = PacketKind::Data;
  bool flowAck = false;
};
static_assert(sizeof(Packet) == 80, "Packet grew: Link's delivery closures may stop fitting inline");

}  // namespace rcsim
