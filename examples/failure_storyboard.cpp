// Failure storyboard: replays the paper's Figure 1 narrative on a real
// simulation — shows the sequence of transient forwarding paths the
// sender→receiver flow takes around one link failure, with timestamps
// relative to the failure and per-second delivery counts.
//
// Usage: failure_storyboard [protocol=DBF] [degree=4] [seed=7]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/scenario.hpp"

int main(int argc, char** argv) {
  using namespace rcsim;

  ScenarioConfig cfg;
  cfg.protocol = argc > 1 ? protocolKindFromString(argv[1]) : ProtocolKind::Dbf;
  cfg.mesh.degree = argc > 2 ? std::atoi(argv[2]) : 4;
  cfg.seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7;

  Scenario sc{cfg};
  sc.run();

  const double failSec = cfg.failAt.toSeconds();
  std::printf("protocol %s, degree %d, seed %llu\n", toString(cfg.protocol), cfg.mesh.degree,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("sender %d (row 0), receiver %d (row %d)\n", sc.sender(), sc.receiver(),
              cfg.mesh.rows - 1);
  const Link* cut = sc.faultInjector()->pathCuts().front();
  std::printf("failed link: (%d,%d) at t=+0.000s\n\n", cut->endpointA(), cut->endpointB());

  std::printf("forwarding path storyboard (times relative to failure):\n");
  for (const auto& e : sc.stats().pathWalker().events()) {
    const double rel = e.t.toSeconds() - failSec;
    if (rel < -1.0) continue;  // skip warm-up churn
    std::printf("  t=%+9.3fs  %-10s", rel,
                e.loop ? "LOOP" : (e.blackhole ? "BLACKHOLE" : "ok"));
    for (std::size_t i = 0; i < e.path.size(); ++i) {
      std::printf("%s%d", i ? " -> " : "", e.path[i]);
    }
    std::printf("\n");
  }

  std::printf("\nper-second deliveries around the failure:\n  ");
  const int f = static_cast<int>(failSec);
  for (int s = f - 5; s <= f + 20; ++s) {
    std::printf("%s%d:%.0f", s == f - 5 ? "" : "  ", s - f,
                sc.stats().series().throughputAt(s));
  }
  std::printf("\n\ndrops during convergence: no-route=%llu ttl=%llu in-flight=%llu\n",
              static_cast<unsigned long long>(sc.stats().dataAfterWatermark().dropNoRoute),
              static_cast<unsigned long long>(sc.stats().dataAfterWatermark().dropTtl),
              static_cast<unsigned long long>(sc.stats().dataAfterWatermark().dropInFlightCut));
  return 0;
}
