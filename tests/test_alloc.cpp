// Allocation regression test for the data-plane hop. This binary replaces
// the global operator new with a counting one, so it is built on its own
// (rcsim_alloc_tests) rather than folded into rcsim_tests.
//
// A steady-state CBR packet crossing a link must not touch the heap: both
// link delivery closures live inside the scheduler's inline callback
// storage, the source keeps one pending tick whose slot is recycled, and
// the link queue is a ring that stops growing once warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

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
  cfg.tracePackets = false;  // a hop record is a heap vector by design
  CbrSource cbr{tn.net(), cfg};
  cbr.install();
  std::uint64_t delivered = 0;
  tn.node(3).addDeliveryHandler([&delivered](const Packet&) { ++delivered; });

  tn.warmUp(25_sec);  // converge, then 5 s of traffic sizes the pool and rings
  const std::uint64_t sentBefore = cbr.packetsSent();
  const std::uint64_t deliveredBefore = delivered;
  ASSERT_GT(deliveredBefore, 4000u);

  gAllocations = 0;
  gCounting = true;
  tn.runUntil(30_sec);
  gCounting = false;

  const std::uint64_t forwarded = delivered - deliveredBefore;
  EXPECT_EQ(cbr.packetsSent() - sentBefore, 5000u);
  EXPECT_GE(forwarded, 4990u);  // three hops each
  EXPECT_EQ(gAllocations, 0u) << "heap allocations while forwarding " << forwarded
                              << " packets";
}

}  // namespace
}  // namespace rcsim
