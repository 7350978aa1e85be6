#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/network.hpp"

namespace rcsim {

Link::Link(Network& net, NodeId a, NodeId b, LinkConfig cfg)
    : net_{net}, a_{a}, b_{b}, cfg_{cfg} {
  assert(a != b);
  assert(cfg.bandwidthBps > 0.0);
}

Time Link::transmissionTime(const Packet& p) const {
  return Time::seconds(static_cast<double>(p.sizeBytes) * 8.0 / cfg_.bandwidthBps);
}

void Link::PacketRing::push(PacketHandle h, std::size_t limit) {
  if (size_ == cap_) {
    const std::size_t cap = std::min(std::max<std::size_t>(2 * cap_, 4), limit);
    auto buf = std::make_unique_for_overwrite<PacketHandle[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) buf[i] = buf_[(head_ + i) % cap_];
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }
  std::size_t tail = head_ + size_;
  if (tail >= cap_) tail -= cap_;
  buf_[tail] = h;
  ++size_;
}

PacketHandle Link::PacketRing::pop() {
  assert(size_ > 0);
  const PacketHandle h = buf_[head_];
  if (++head_ == cap_) head_ = 0;
  --size_;
  return h;
}

void Link::send(NodeId from, PacketHandle h) {
  if (!up_) {
    net_.dropPacket(from, h, DropReason::LinkDown);
    return;
  }
  const int dir = directionFrom(from);
  auto& d = dirs_[dir];
  if (d.queue.size() >= cfg_.queueCapacity) {
    net_.dropPacket(from, h, DropReason::QueueOverflow);
    return;
  }
  d.queue.push(h, cfg_.queueCapacity);
  if (!d.transmitting) startTransmission(dir);
}

void Link::startTransmission(int dir) {
  auto& d = dirs_[dir];
  assert(!d.queue.empty());
  d.transmitting = true;
  const PacketHandle h = d.queue.pop();

  auto& sched = net_.scheduler();
  const Time txDone = transmissionTime(net_.packet(h));
  const std::uint64_t epoch = epoch_;
  if (!up_) {
    // Unreachable while send() and the restart below check up_; the
    // invariant checker flags it if that ever changes.
    net_.trace().emit(sched.now(), obs::TraceKind::DownLinkTransmit, dir == 0 ? a_ : b_,
                      receiverOf(dir));
  }
  // Serialization completes first; then the bits propagate. If the link
  // fails in between, the packet is lost (epoch check).
  auto serialized = [this, dir, epoch, h] {
    auto& d2 = dirs_[dir];
    d2.transmitting = false;
    if (up_ && epoch == epoch_) {
      const NodeId to = receiverOf(dir);
      const NodeId from = peerOf(to);
      // Reordering impairment: some packets pick up extra propagation
      // delay, letting later packets overtake them. Rate 0 draws nothing.
      Time prop = cfg_.propDelay;
      if (reorderRate_ > 0.0 && net_.rng().uniform01() < reorderRate_) {
        prop = prop + Time::seconds(net_.rng().uniform(0.0, reorderJitter_.toSeconds()));
      }
      // Control-plane delay impairment: fixed extra propagation for control
      // packets only (hellos, routing updates). No randomness involved.
      if (ctrlDelay_ > Time::zero() && net_.packet(h).kind == PacketKind::Control) {
        prop = prop + ctrlDelay_;
      }
      auto arrived = [this, to, from, epoch, h] {
        if (up_ && epoch == epoch_) {
          const bool ctrl = net_.packet(h).kind == PacketKind::Control;
          // Loss/corruption are decided at arrival, after the wire survived
          // the trip. Corrupted frames fail the checksum and are dropped —
          // same fate as random loss, but accounted separately. Control
          // packets additionally face the control-plane-only loss draw.
          if (ctrl && ctrlLossRate_ > 0.0 && net_.rng().uniform01() < ctrlLossRate_) {
            net_.dropPacket(from, h, DropReason::RandomLoss);
          } else if (lossRate_ > 0.0 && net_.rng().uniform01() < lossRate_) {
            net_.dropPacket(from, h, DropReason::RandomLoss);
          } else if (corruptRate_ > 0.0 && net_.rng().uniform01() < corruptRate_) {
            net_.dropPacket(from, h, DropReason::Corrupted);
          } else {
            // Duplication impairment: the receiver sees the same control
            // packet twice back to back (e.g. a misbehaving relay). Dup
            // state in protocols and the detector must stay idempotent.
            if (ctrl && ctrlDupRate_ > 0.0 && net_.rng().uniform01() < ctrlDupRate_) {
              Packet copy = net_.packet(h);
              net_.node(to).receive(net_.park(std::move(copy)), from);
            }
            net_.node(to).receive(h, from);
          }
        } else {
          net_.dropPacket(from, h, DropReason::InFlightCut);
        }
      };
      // Every data-plane hop schedules this closure and the one around it;
      // a heap cell for either would cost an allocation per hop.
      static_assert(EventCallback::storesInline<decltype(arrived)>);
      net_.scheduler().scheduleAfter(prop, EventKind::LinkDelivery, arrived);
    } else {
      net_.dropPacket(receiverOf(dir) == b_ ? a_ : b_, h, DropReason::InFlightCut);
    }
    // Restart the transmitter regardless of what happened to this packet:
    // the link may have failed and recovered while we were serializing, in
    // which case fresh packets may already be waiting in the queue.
    if (up_ && !d2.queue.empty()) startTransmission(dir);
  };
  static_assert(EventCallback::storesInline<decltype(serialized)>);
  sched.scheduleAfter(txDone, EventKind::LinkDelivery, serialized);
}

void Link::fail() {
  if (!up_) return;
  up_ = false;
  ++epoch_;
  auto& sched = net_.scheduler();
  net_.trace().emit(sched.now(), obs::TraceKind::LinkDown, a_, b_);
  // Everything sitting in the queues is lost.
  for (int dir = 0; dir < 2; ++dir) {
    auto& d = dirs_[dir];
    const NodeId from = dir == 0 ? a_ : b_;
    while (!d.queue.empty()) {
      net_.dropPacket(from, d.queue.pop(), DropReason::InFlightCut);
    }
  }
  // Both attached nodes detect the failure after the detection delay
  // (paper §5: "detected by the two nodes attached to it within 50 ms") —
  // unless a hello detector is installed, in which case the only signal the
  // nodes get is the hellos that stop arriving.
  if (net_.detector() != nullptr) return;
  failedAt_ = sched.now();
  pendingDetect_ = sched.scheduleAfter(cfg_.detectDelay, EventKind::Detector, [this] {
    pendingDetect_ = EventId{};
    if (up_) return;  // recovered before detection fired
    net_.node(a_).handleLinkDown(b_);
    net_.node(b_).handleLinkDown(a_);
  });
}

void Link::recover() {
  if (up_) return;
  up_ = true;
  auto& sched = net_.scheduler();
  net_.trace().emit(sched.now(), obs::TraceKind::LinkUp, a_, b_);
  if (net_.detector() != nullptr) return;
  sched.scheduleAfter(cfg_.detectDelay, EventKind::Detector, [this] {
    if (!up_) return;
    net_.node(a_).handleLinkUp(b_);
    net_.node(b_).handleLinkUp(a_);
  });
}

void Link::setDetectDelay(Time d) {
  cfg_.detectDelay = d;
  // A pending down-detection (link already failed, nodes not yet notified)
  // must follow the new delay: cancel and re-time it against the original
  // failure instant, clamping to "now" when the new deadline already passed.
  if (up_ || !pendingDetect_.valid()) return;
  auto& sched = net_.scheduler();
  sched.cancel(pendingDetect_);
  pendingDetect_ = sched.scheduleAt(failedAt_ + d, EventKind::Detector, [this] {
    pendingDetect_ = EventId{};
    if (up_) return;
    net_.node(a_).handleLinkDown(b_);
    net_.node(b_).handleLinkDown(a_);
  });
}

}  // namespace rcsim
