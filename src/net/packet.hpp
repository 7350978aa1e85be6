#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "net/message.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace rcsim {

/// A packet's hop record: the index of a span in its Network's hop pool
/// (Network::openHopRecord), or none. Moving hands the record on; copying
/// a packet that holds one throws std::logic_error, so two packets never
/// share a span and no span is released twice.
class HopRecord {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  HopRecord() = default;
  explicit HopRecord(std::uint32_t span) : span_{span} {}
  HopRecord(const HopRecord& other) { *this = other; }
  HopRecord& operator=(const HopRecord& other) {
    if (other.held()) throw std::logic_error("copying a packet that holds a hop record");
    span_ = kNone;
    return *this;
  }
  HopRecord(HopRecord&& other) noexcept : span_{std::exchange(other.span_, kNone)} {}
  HopRecord& operator=(HopRecord&& other) noexcept {
    span_ = std::exchange(other.span_, kNone);
    return *this;
  }

  [[nodiscard]] bool held() const { return span_ != kNone; }
  [[nodiscard]] std::uint32_t span() const { return span_; }

 private:
  std::uint32_t span_ = kNone;
};

/// A simulated IP packet. Data packets carry no payload object; control
/// packets carry a routing/transport payload and are link-local (one hop).
///
/// A packet is built by its sender and parked once in its Network's packet
/// slab (Network::park); links, event closures and nodes pass the 4-byte
/// PacketHandle until delivery or a drop releases it. Fields are ordered
/// widest first so the struct has no padding holes.
struct Packet {
  std::uint64_t id = 0;
  Time sendTime;  ///< Origination time (for end-to-end delay).
  std::shared_ptr<const ControlPayload> payload;
  /// End-to-end flow header (used by the TCP-like traffic extension):
  /// which flow the packet belongs to, its sequence number, and whether it
  /// is a (cumulative) acknowledgement travelling back to the sender.
  std::uint64_t flowSeq = 0;
  std::int32_t flowId = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int ttl = 0;
  std::uint32_t sizeBytes = 0;
  /// When packet tracing is enabled, every node that receives the packet
  /// appends its id; lets the forensics tools detect loops per packet.
  HopRecord hops;
  PacketKind kind = PacketKind::Data;
  bool flowAck = false;
};
static_assert(sizeof(Packet) == 72, "Packet grew: one slab slot per in-flight packet");

/// Index of a packet parked in its Network's packet slab.
enum class PacketHandle : std::uint32_t {};

}  // namespace rcsim
