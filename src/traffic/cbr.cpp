#include "traffic/cbr.hpp"

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace rcsim {

CbrSource::CbrSource(Network& net, Config cfg) : net_{net}, cfg_{cfg} {}

void CbrSource::install() {
  auto& sched = net_.scheduler();
  period_ = Time::seconds(1.0 / cfg_.packetsPerSecond);
  std::uint64_t n = 0;
  for (Time t = cfg_.start; t < cfg_.stop; t += period_) ++n;
  if (n == 0) return;
  Time t = cfg_.start;
  nextSeq_ = sched.reserveSeries(EventKind::Traffic, n, [&t, this] {
    const Time at = t;
    t += period_;
    return at;
  });
  nextAt_ = cfg_.start;
  ticksLeft_ = n;
  armTick();
}

void CbrSource::armTick() {
  net_.scheduler().scheduleReserved(nextAt_, nextSeq_, EventKind::Traffic, [this] {
    emitPacket();
    if (--ticksLeft_ == 0) return;
    nextAt_ += period_;
    ++nextSeq_;
    armTick();
  });
}

void CbrSource::emitPacket() {
  Packet p;
  p.id = net_.nextPacketId();
  p.src = cfg_.src;
  p.dst = cfg_.dst;
  p.ttl = cfg_.ttl;
  p.sizeBytes = cfg_.packetBytes;
  p.kind = PacketKind::Data;
  p.sendTime = net_.scheduler().now();
  if (cfg_.tracePackets) p.hops = net_.openHopRecord(p.ttl);
  ++sent_;
  net_.node(cfg_.src).originate(std::move(p));
}

}  // namespace rcsim
