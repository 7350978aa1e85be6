#pragma once

#include <cstdint>

#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rcsim {

class Network;

/// Constant-bit-rate source: `rate` packets per second from src to dst
/// during [start, stop), as in the paper's workload (a single CBR sender).
class CbrSource {
 public:
  struct Config {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double packetsPerSecond = 20.0;
    std::uint32_t packetBytes = 1000;
    int ttl = 127;
    Time start;
    Time stop;
    bool tracePackets = false;  ///< Record the hop sequence of every packet.
  };

  CbrSource(Network& net, Config cfg);

  /// Reserve one scheduler sequence number per emission, then keep exactly
  /// one tick pending: each tick arms the next under its reserved number.
  /// Ties with other events therefore break exactly as if every emission
  /// had been scheduled here up front, while the event pool holds one slot
  /// per source instead of one per packet.
  void install();

  [[nodiscard]] std::uint64_t packetsSent() const { return sent_; }

 private:
  void armTick();
  void emitPacket();

  Network& net_;
  Config cfg_;
  std::uint64_t sent_ = 0;
  Time period_;
  Time nextAt_;                  ///< Instant of the pending tick.
  std::uint64_t nextSeq_ = 0;    ///< Its reserved sequence number.
  std::uint64_t ticksLeft_ = 0;  ///< Ticks not yet fired, the pending one included.
};

}  // namespace rcsim
