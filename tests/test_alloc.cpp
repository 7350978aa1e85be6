// Allocation regression test for the data-plane hop. This binary replaces
// the global operator new with a counting one, so it is built on its own
// (rcsim_alloc_tests) rather than folded into rcsim_tests.
//
// A steady-state CBR packet crossing a link must not touch the heap: the
// packet and its hop record wait in the network's slab and hop pool, both
// link delivery closures (which carry only the packet's handle) live inside
// the scheduler's inline callback storage, the source keeps one pending
// tick whose slot is recycled, and the link queue is a ring of handles
// that stops growing once warm, and so are the scheduler's lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "test_util.hpp"
#include "traffic/cbr.hpp"

namespace {
std::uint64_t gAllocations = 0;
bool gCounting = false;

void* countedAlloc(std::size_t n, std::size_t align) {
  if (gCounting) ++gAllocations;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

// The array and nothrow forms forward to these in the standard library.
// GCC flags free() in a replacement operator delete once it inlines the
// pair into a caller; here malloc/aligned_alloc are the matching allocators.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) { return countedAlloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace rcsim {
namespace {

using namespace rcsim::literals;

TEST(Alloc, SteadyStateDataPlaneHopAllocatesNothing) {
  // DBF on a 4-node line. Periodic updates are pushed far past the run, so
  // after convergence the only events are CBR ticks and link deliveries.
  // Run once without and once with per-packet hop records (the default
  // config): records come from a pool that is warm after the first second.
  for (const bool tracePackets : {false, true}) {
    SCOPED_TRACE(tracePackets ? "trace-packets=1" : "trace-packets=0");
    ProtocolConfig proto;
    proto.dv.periodicInterval = 1000_sec;
    testutil::TestNet tn{testutil::lineTopology(4), ProtocolKind::Dbf, proto};
    CbrSource::Config cfg;
    cfg.src = 0;
    cfg.dst = 3;
    cfg.packetsPerSecond = 1000.0;
    cfg.packetBytes = 64;
    cfg.start = 20_sec;
    cfg.stop = 40_sec;
    cfg.tracePackets = tracePackets;
    CbrSource cbr{tn.net(), cfg};
    cbr.install();
    std::uint64_t delivered = 0;
    std::uint64_t hops = 0;
    tn.node(3).addDeliveryHandler([&](const Packet& p) {
      ++delivered;
      hops += tn.net().hopRecord(p).size();
    });

    tn.warmUp(25_sec);  // converge, then 5 s of traffic sizes the pools and rings
    const std::uint64_t sentBefore = cbr.packetsSent();
    const std::uint64_t deliveredBefore = delivered;
    const std::uint64_t hopsBefore = hops;
    ASSERT_GT(deliveredBefore, 4000u);

    gAllocations = 0;
    gCounting = true;
    tn.runUntil(30_sec);
    gCounting = false;

    const std::uint64_t forwarded = delivered - deliveredBefore;
    EXPECT_EQ(cbr.packetsSent() - sentBefore, 5000u);
    EXPECT_GE(forwarded, 4990u);  // three hops each
    EXPECT_EQ(hops - hopsBefore, tracePackets ? 4 * forwarded : 0u);  // four nodes visited
    EXPECT_EQ(gAllocations, 0u) << "heap allocations while forwarding " << forwarded
                                << " packets";
  }
}

TEST(Alloc, SteadyStateWithLaneRebindingAllocatesNothing) {
  // Four CBR sources of four packet sizes at four rates on one line, two in
  // each direction: four transmission times plus the propagation delay are
  // five link delays for four lanes, so lanes keep being rebound, and while
  // all five are pending a link event waits in the heap.
  ProtocolConfig proto;
  proto.dv.periodicInterval = 1000_sec;
  testutil::TestNet tn{testutil::lineTopology(4), ProtocolKind::Dbf, proto};
  struct Flow {
    NodeId src, dst;
    std::uint32_t bytes;
    double rate;
  };
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (const Flow& f : {Flow{0, 3, 64, 700.0}, Flow{3, 0, 200, 500.0}, Flow{0, 3, 500, 400.0},
                        Flow{3, 0, 1000, 300.0}}) {
    CbrSource::Config cfg;
    cfg.src = f.src;
    cfg.dst = f.dst;
    cfg.packetsPerSecond = f.rate;
    cfg.packetBytes = f.bytes;
    cfg.start = 20_sec;
    cfg.stop = 40_sec;
    sources.push_back(std::make_unique<CbrSource>(tn.net(), cfg));
    sources.back()->install();
  }
  std::uint64_t delivered = 0;
  for (const NodeId sink : {0, 3}) {
    tn.node(sink).addDeliveryHandler([&delivered](const Packet&) { ++delivered; });
  }

  tn.warmUp(25_sec);
  const Scheduler& sched = tn.scheduler();
  const std::uint64_t deliveredBefore = delivered;
  const std::uint64_t rebindsBefore = sched.laneRebinds();
  const std::uint64_t lanedBefore = sched.laneEvents();
  const std::uint64_t linkBefore = sched.kindStats(EventKind::LinkDelivery).scheduled;
  ASSERT_GT(deliveredBefore, 4000u);

  gAllocations = 0;
  gCounting = true;
  tn.runUntil(30_sec);
  gCounting = false;

  const std::uint64_t forwarded = delivered - deliveredBefore;
  EXPECT_GE(forwarded, 9490u);  // 1900 packets a second, three hops each
  EXPECT_GT(sched.laneRebinds() - rebindsBefore, 1000u);
  const std::uint64_t laned = sched.laneEvents() - lanedBefore;
  EXPECT_GT(laned, 0u);
  EXPECT_LT(laned, sched.kindStats(EventKind::LinkDelivery).scheduled - linkBefore);
  EXPECT_EQ(gAllocations, 0u) << "heap allocations while forwarding " << forwarded
                              << " packets";
}

}  // namespace
}  // namespace rcsim
