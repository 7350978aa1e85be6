#pragma once

#include <cstdint>

namespace rcsim {

/// Dense node identifier; nodes are numbered 0..N-1 by the Network.
using NodeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// Why a packet left the network without being delivered.
///
/// The paper's Figure 3 counts `NoRoute` ("drops due to no reachability",
/// i.e. the router is inside its path switch-over period) and Figure 4
/// counts `TtlExpired` (always loop-caused in these topologies, §5.2).
enum class DropReason {
  NoRoute,        ///< FIB has no next hop for the destination.
  TtlExpired,     ///< TTL decremented to zero (transient forwarding loop).
  QueueOverflow,  ///< Drop-tail queue at the outgoing link was full.
  LinkDown,       ///< Forwarded into a link already known to be down.
  InFlightCut,    ///< Was on the wire / in the queue when the link failed.
  RandomLoss,     ///< Lost to a configured link loss rate (fault injection).
  Corrupted,      ///< Corrupted in transit past the CRC (fault injection).
};

[[nodiscard]] constexpr const char* toString(DropReason r) {
  switch (r) {
    case DropReason::NoRoute: return "no-route";
    case DropReason::TtlExpired: return "ttl-expired";
    case DropReason::QueueOverflow: return "queue-overflow";
    case DropReason::LinkDown: return "link-down";
    case DropReason::InFlightCut: return "in-flight-cut";
    case DropReason::RandomLoss: return "random-loss";
    case DropReason::Corrupted: return "corrupted";
  }
  return "?";
}

enum class PacketKind : std::uint8_t { Data, Control };

}  // namespace rcsim
