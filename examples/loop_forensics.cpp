// Loop forensics: hunts for a (protocol, seed) run whose convergence forms
// a transient forwarding loop, then dissects it the way the paper's §5.2
// does from its trace files — when the loop formed, which nodes took part,
// how long it lived, and what it cost in TTL-expired packets.
//
// Usage: loop_forensics [protocol=BGP] [degree=3] [maxSeeds=40]
#include <cstdio>
#include <cstdlib>

#include "core/scenario.hpp"

int main(int argc, char** argv) {
  using namespace rcsim;

  const ProtocolKind kind = argc > 1 ? protocolKindFromString(argv[1]) : ProtocolKind::Bgp;
  const int degree = argc > 2 ? std::atoi(argv[2]) : 3;
  const int maxSeeds = argc > 3 ? std::atoi(argv[3]) : 40;

  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(maxSeeds); ++seed) {
    ScenarioConfig cfg;
    cfg.protocol = kind;
    cfg.mesh.degree = degree;
    cfg.seed = seed;
    Scenario sc{cfg};
    sc.run();

    const auto& events = sc.stats().pathWalker().events();
    bool sawLoop = false;
    for (const auto& e : events) {
      if (e.t >= cfg.failAt && e.loop) sawLoop = true;
    }
    if (!sawLoop) continue;

    std::printf("%s degree %d seed %llu: transient loop(s) after the failure\n",
                toString(kind), degree, static_cast<unsigned long long>(seed));
    std::printf("failed link (%d,%d); TTL-expired packets: %llu\n\n",
                sc.faultInjector()->pathCuts().front()->endpointA(),
                sc.faultInjector()->pathCuts().front()->endpointB(),
                static_cast<unsigned long long>(sc.stats().dataAfterWatermark().dropTtl));
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      if (e.t < cfg.failAt || !e.loop) continue;
      const Time endT = i + 1 < events.size() ? events[i + 1].t : sc.scheduler().now();
      std::printf("  loop from t=+%.4fs lasting %.4fs:\n    ",
                  (e.t - cfg.failAt).toSeconds(), (endT - e.t).toSeconds());
      for (std::size_t j = 0; j < e.path.size(); ++j) {
        std::printf("%s%d", j ? " -> " : "", e.path[j]);
      }
      std::printf("   (last node repeats: the cycle)\n");
    }
    std::printf("\nnote: the loop lives until the nodes exchange their next updates —\n"
                "with a large MRAI that correction is exactly what gets delayed.\n");
    return 0;
  }

  std::printf("no forwarding-path loop observed for %s at degree %d in %d seeds\n",
              toString(kind), degree, maxSeeds);
  std::printf("(loops concentrate in the sparse regime; try degree 3 and BGP)\n");
  return 0;
}
