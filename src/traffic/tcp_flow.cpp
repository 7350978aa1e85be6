#include "traffic/tcp_flow.hpp"

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace rcsim {

TcpFlow::TcpFlow(Network& net, Config cfg) : net_{net}, cfg_{cfg} {}

TcpFlow::~TcpFlow() { net_.scheduler().cancel(rtoTimer_); }

void TcpFlow::install() {
  // Both endpoints see every locally delivered packet; filter by flow id.
  auto handler = [this](const Packet& p) {
    if (p.flowId == cfg_.flowId) onPacket(p);
  };
  net_.node(cfg_.dst).addDeliveryHandler(handler);
  net_.node(cfg_.src).addDeliveryHandler(handler);
  net_.scheduler().scheduleAt(cfg_.start, EventKind::Traffic, [this] { startSending(); });
}

void TcpFlow::startSending() { fillWindow(); }

void TcpFlow::fillWindow() {
  const Time now = net_.scheduler().now();
  while (nextSeq_ < sendBase_ + static_cast<std::uint64_t>(cfg_.window) && now < cfg_.stop) {
    sendData(nextSeq_);
    ++nextSeq_;
  }
  armRto();
}

void TcpFlow::sendData(std::uint64_t seq) {
  Packet p;
  p.id = net_.nextPacketId();
  p.src = cfg_.src;
  p.dst = cfg_.dst;
  p.ttl = cfg_.ttl;
  p.sizeBytes = cfg_.packetBytes;
  p.kind = PacketKind::Data;
  p.sendTime = net_.scheduler().now();
  p.flowId = cfg_.flowId;
  p.flowSeq = seq;
  p.flowAck = false;
  if (cfg_.tracePackets) p.hops = net_.openHopRecord(p.ttl);
  net_.node(cfg_.src).originate(std::move(p));
}

void TcpFlow::sendAck() {
  Packet p;
  p.id = net_.nextPacketId();
  p.src = cfg_.dst;
  p.dst = cfg_.src;
  p.ttl = cfg_.ttl;
  p.sizeBytes = cfg_.ackBytes;
  p.kind = PacketKind::Data;
  p.sendTime = net_.scheduler().now();
  p.flowId = cfg_.flowId;
  p.flowSeq = recvNext_;  // cumulative: everything below this was received
  p.flowAck = true;
  net_.node(cfg_.dst).originate(std::move(p));
}

void TcpFlow::onPacket(const Packet& p) {
  if (p.flowAck) {
    // Sender side.
    if (p.flowSeq > sendBase_) {
      sendBase_ = p.flowSeq;
      dupAcks_ = 0;
      net_.scheduler().cancel(rtoTimer_);
      rtoTimer_ = EventId{};
      fillWindow();
    } else if (p.flowSeq == sendBase_ && sendBase_ < nextSeq_) {
      if (++dupAcks_ >= cfg_.dupAckThreshold) {
        dupAcks_ = 0;
        ++retransmissions_;
        sendData(sendBase_);  // fast retransmit of the missing packet
      }
    }
    return;
  }

  // Receiver side.
  if (p.flowSeq >= recvNext_) outOfOrder_.insert(p.flowSeq);
  while (!outOfOrder_.empty() && *outOfOrder_.begin() == recvNext_) {
    outOfOrder_.erase(outOfOrder_.begin());
    const auto sec =
        static_cast<std::size_t>(net_.scheduler().now().ns() / 1'000'000'000);
    if (sec >= goodput_.size()) goodput_.resize(sec + 1);
    ++goodput_[sec];
    ++recvNext_;
  }
  sendAck();
}

void TcpFlow::armRto() {
  if (sendBase_ == nextSeq_ || rtoTimer_.valid()) return;
  rtoTimer_ = net_.scheduler().scheduleAfter(cfg_.rto, EventKind::Transport, [this] { onRto(); });
}

void TcpFlow::onRto() {
  rtoTimer_ = EventId{};
  if (sendBase_ == nextSeq_) return;
  ++retransmissions_;
  sendData(sendBase_);  // go-back-1: resend the oldest unacked packet
  armRto();
}

}  // namespace rcsim
