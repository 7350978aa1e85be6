#pragma once

#include <cstddef>
#include <memory>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rcsim {

class Network;

/// Physical characteristics of a link (paper §5: unit cost, 1 ms propagation
/// delay, 10 Mbps, 20-packet queue, 50 ms failure detection).
struct LinkConfig {
  double bandwidthBps = 10e6;
  Time propDelay = Time::milliseconds(1);
  std::size_t queueCapacity = 20;
  Time detectDelay = Time::milliseconds(50);
  int cost = 1;
};

/// Full-duplex point-to-point link with per-direction drop-tail FIFO queue
/// and serialization delay. Failure drops queued and in-flight packets and
/// notifies both endpoint routing protocols after `detectDelay`.
class Link {
 public:
  Link(Network& net, NodeId a, NodeId b, LinkConfig cfg);

  [[nodiscard]] NodeId endpointA() const { return a_; }
  [[nodiscard]] NodeId endpointB() const { return b_; }
  [[nodiscard]] NodeId peerOf(NodeId n) const { return n == a_ ? b_ : a_; }
  [[nodiscard]] bool isUp() const { return up_; }
  [[nodiscard]] const LinkConfig& config() const { return cfg_; }
  [[nodiscard]] bool connects(NodeId x, NodeId y) const {
    return (a_ == x && b_ == y) || (a_ == y && b_ == x);
  }

  /// Enqueue the parked packet `h` from endpoint `from` toward the other
  /// endpoint. Drops (with accounting) if the link is down or the queue is
  /// full; the queue and the delivery closures carry only the handle.
  void send(NodeId from, PacketHandle h);

  /// Take the link down at the current simulation time.
  void fail();

  /// Bring the link back up at the current simulation time.
  void recover();

  /// Fault-injection impairments. A rate of zero disables the impairment
  /// and draws no randomness, so unimpaired runs stay bit-identical.
  void setLossRate(double rate) { lossRate_ = rate; }
  void setCorruptRate(double rate) { corruptRate_ = rate; }
  void setReorder(double rate, Time jitter) {
    reorderRate_ = rate;
    reorderJitter_ = jitter;
  }
  [[nodiscard]] double lossRate() const { return lossRate_; }
  [[nodiscard]] double corruptRate() const { return corruptRate_; }

  /// Control-plane-only impairments (fault kinds ctrl-loss / ctrl-delay /
  /// ctrl-dup): applied solely to PacketKind::Control, so hellos and
  /// routing updates can be attacked while data traffic flows untouched.
  void setCtrlLossRate(double rate) { ctrlLossRate_ = rate; }
  void setCtrlDelay(Time d) { ctrlDelay_ = d; }
  void setCtrlDupRate(double rate) { ctrlDupRate_ = rate; }
  [[nodiscard]] double ctrlLossRate() const { return ctrlLossRate_; }
  [[nodiscard]] Time ctrlDelay() const { return ctrlDelay_; }
  [[nodiscard]] double ctrlDupRate() const { return ctrlDupRate_; }

  /// Override the failure-detection delay, e.g. to model silent failures
  /// that routing only notices long after the data plane went dark. If a
  /// failure detection is already pending (the link is down but the nodes
  /// have not been notified yet), it is rescheduled against the new delay.
  void setDetectDelay(Time d);

 private:
  /// Drop-tail FIFO of packet handles: a ring that starts empty, doubles
  /// when full up to the link's queue capacity and never shrinks while the
  /// link lives, so a steady flow enqueues and dequeues without allocating
  /// and an idle direction costs no buffer at all.
  class PacketRing {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// Append `h`; the caller has checked size() < `limit`.
    void push(PacketHandle h, std::size_t limit);

    /// Remove and return the oldest handle.
    PacketHandle pop();

   private:
    std::unique_ptr<PacketHandle[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Direction {
    PacketRing queue;
    bool transmitting = false;
  };

  void startTransmission(int dir);
  [[nodiscard]] Time transmissionTime(const Packet& p) const;
  [[nodiscard]] int directionFrom(NodeId from) const { return from == a_ ? 0 : 1; }
  [[nodiscard]] NodeId receiverOf(int dir) const { return dir == 0 ? b_ : a_; }

  Network& net_;
  NodeId a_;
  NodeId b_;
  LinkConfig cfg_;
  Direction dirs_[2];
  bool up_ = true;
  double lossRate_ = 0.0;     ///< P(packet lost at arrival), DropReason::RandomLoss.
  double corruptRate_ = 0.0;  ///< P(packet corrupted at arrival), DropReason::Corrupted.
  double reorderRate_ = 0.0;  ///< P(extra propagation delay added).
  Time reorderJitter_ = Time::zero();  ///< Upper bound of that extra delay.
  double ctrlLossRate_ = 0.0;      ///< P(control packet lost at arrival).
  Time ctrlDelay_ = Time::zero();  ///< Fixed extra propagation for control packets.
  double ctrlDupRate_ = 0.0;       ///< P(control packet delivered twice).
  Time failedAt_{};                ///< When the current down period began.
  EventId pendingDetect_{};        ///< Down-detection event, rescheduled by
                                   ///< setDetectDelay while still pending.
  /// Bumped on every failure; in-flight delivery events check it so that
  /// packets "on the wire" at failure time are lost.
  std::uint64_t epoch_ = 0;
};

}  // namespace rcsim
