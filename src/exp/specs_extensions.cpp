// Extensions E1..E9 as registered experiment specs. Every cell is plain
// declarative grid run through runScenario: faults beyond the paper's one
// path-targeted failure (E4's Tdown cut, E6's churn) are fault-plan events.

#include <cstdio>
#include <functional>
#include <string>

#include "exp/registry.hpp"
#include "exp/specs.hpp"
#include "exp/specs_common.hpp"

namespace rcsim::exp {
namespace {

// E1 — end-to-end TCP performance during convergence: a fixed-window
// reliable transfer whose data AND acks ride the routed data plane.
void registerTcp() {
  ExperimentSpec spec;
  spec.name = "ext_tcp";
  spec.title = "Extension E1: TCP goodput through convergence";
  spec.description = "fixed-window reliable flow (data + acks routed) through one failure";
  spec.paperRuns = 20;
  const std::vector<int> degrees{3, 6};
  for (const int degree : degrees) {
    for (const auto kind : kPaperProtocols) {
      CellSpec cell;
      cell.id = std::string{toString(kind)} + "/degree=" + std::to_string(degree);
      cell.label = toString(kind);
      cell.config = baseConfig();
      cell.config.protocol = kind;
      cell.config.mesh.degree = degree;
      cell.config.traffic = TrafficKind::Tcp;
      cell.config.tcpWindow = 8;
      spec.cells.push_back(std::move(cell));
    }
  }
  spec.render = [degrees](const ExperimentSpec&, const ExperimentResult& res) {
    const double runs = res.runs;
    for (std::size_t g = 0; g < degrees.size(); ++g) {
      report::header("Extension E1, degree " + std::to_string(degrees[g]),
                     "TCP-like flow through one link failure");
      std::printf("%-6s %16s %16s %16s %16s\n", "proto", "goodput-pkts", "retransmissions",
                  "rt-conv(s)", "fwd-conv(s)");
      for (std::size_t p = 0; p < kPaperProtocols.size(); ++p) {
        const CellResult& c = res.cells[g * kPaperProtocols.size() + p];
        std::printf("%-6s %16.1f %16.1f %16.2f %16.2f\n", toString(kPaperProtocols[p]),
                    c.totals.tcpGoodputPackets / runs, c.totals.tcpRetransmissions / runs,
                    c.agg.routingConvergenceSec, c.agg.forwardingConvergenceSec);
      }
    }
    std::printf("\nReading: protocols that black-hole (RIP) stall the window for the whole\n"
                "switch-over; protocols with alternate paths keep the ACK clock ticking, so\n"
                "goodput barely dips and retransmissions stay near zero in dense meshes.\n");
  };
  registerExperiment(std::move(spec));
}

// E2 — multiple flows and multiple overlapping failures: failure k hits
// flow (k mod flows)'s then-current path 5 s after failure k-1.
void registerMultifailure() {
  ExperimentSpec spec;
  spec.name = "ext_multifailure";
  spec.title = "Extension E2: multiple flows, overlapping failures";
  spec.description = "4 flows, 1/2/4 staggered failures, drops summed over flows";
  spec.paperRuns = 15;
  const std::vector<int> degrees{4, 6};
  const std::vector<int> failureCounts{1, 2, 4};
  for (const int degree : degrees) {
    for (const auto kind : kPaperProtocols) {
      for (const int fc : failureCounts) {
        CellSpec cell;
        cell.id = std::string{toString(kind)} + "/degree=" + std::to_string(degree) +
                  "/failures=" + std::to_string(fc);
        cell.label = toString(kind);
        cell.config = baseConfig();
        cell.config.protocol = kind;
        cell.config.mesh.degree = degree;
        cell.config.flows = 4;
        cell.config.failureCount = fc;
        cell.config.failureSpacing = Time::seconds(5.0);
        spec.cells.push_back(std::move(cell));
      }
    }
  }
  spec.render = [degrees, failureCounts](const ExperimentSpec&, const ExperimentResult& res) {
    const std::size_t perDegree = kPaperProtocols.size() * failureCounts.size();
    for (std::size_t g = 0; g < degrees.size(); ++g) {
      report::header("Extension E2, degree " + std::to_string(degrees[g]),
                     "4 flows; drops summed over all flows during convergence");
      std::printf("%-6s", "proto");
      for (const int fc : failureCounts) std::printf("   %2d-failure(s)", fc);
      std::printf("   %12s\n", "rt-conv@4");
      for (std::size_t p = 0; p < kPaperProtocols.size(); ++p) {
        std::printf("%-6s", toString(kPaperProtocols[p]));
        double lastConv = 0;
        for (std::size_t f = 0; f < failureCounts.size(); ++f) {
          const Aggregate& a =
              res.cells[g * perDegree + p * failureCounts.size() + f].agg;
          std::printf("   %12.2f", a.dropsNoRoute + a.dropsTtl);
          lastConv = a.routingConvergenceSec;
        }
        std::printf("   %12.2f\n", lastConv);
      }
    }
    std::printf("\nReading: losses grow roughly with the number of failures; the alternate-\n"
                "path protocols degrade gracefully while RIP multiplies its black-hole\n"
                "windows. Convergence time stretches as episodes overlap.\n");
  };
  registerExperiment(std::move(spec));
}

// E3 — regular meshes vs connected random graphs with matched node count
// and average degree.
void registerRandomTopo() {
  ExperimentSpec spec;
  spec.name = "ext_random_topo";
  spec.title = "Extension E3: regular mesh vs random graph";
  spec.description = "do the findings survive on random graphs with matched degree?";
  spec.defaultRuns = 20;
  spec.paperRuns = 30;
  const std::vector<int> degrees{4, 6, 8};
  for (const bool randomTopo : {false, true}) {
    for (const auto kind : kPaperProtocols) {
      for (const int d : degrees) {
        CellSpec cell;
        cell.id = std::string{randomTopo ? "random" : "mesh"} + "/" + toString(kind) +
                  "/degree=" + std::to_string(d);
        cell.label = toString(kind);
        cell.config = baseConfig();
        cell.config.protocol = kind;
        if (randomTopo) {
          cell.config.topology = TopologyKind::Random;
          cell.config.random.nodes = 49;
          cell.config.random.avgDegree = d;
        } else {
          cell.config.mesh.degree = d;
        }
        spec.cells.push_back(std::move(cell));
      }
    }
  }
  spec.render = [degrees](const ExperimentSpec&, const ExperimentResult& res) {
    const std::size_t rows = kPaperProtocols.size();
    const std::size_t cols = degrees.size();
    for (int group = 0; group < 2; ++group) {
      report::header(std::string{"Extension E3, "} + (group ? "random graphs" : "regular meshes"),
                     "49 nodes; drops due to no route during convergence");
      const std::size_t base = static_cast<std::size_t>(group) * rows * cols;
      report::degreeSweep("no-route drops", degrees, names(kPaperProtocols),
                          matrix(res, base, rows, cols,
                                 [](const CellResult& c) { return c.agg.dropsNoRoute; }));
      report::degreeSweep("TTL expirations", degrees, names(kPaperProtocols),
                          matrix(res, base, rows, cols,
                                 [](const CellResult& c) { return c.agg.dropsTtl; }));
    }
    std::printf("\nReading: the ordering (RIP >> DBF/BGP3, BGP worst for loops) holds on\n"
                "random graphs; random graphs are noisier because a single failure can hit\n"
                "a bridge-like edge that a regular mesh never has.\n");
  };
  registerExperiment(std::move(spec));
}

// E4 — consistency assertions (the paper's ref [21], Pei et al.): Tshort
// grid first, then the Tdown slow-convergence case where [21] reports the
// big win.
void registerAssertions() {
  ExperimentSpec spec;
  spec.name = "ext_assertions";
  spec.title = "Extension E4: BGP consistency assertions";
  spec.description = "BGP/BGP3 with and without consistency assertions; Tshort and Tdown";
  spec.paperRuns = 15;
  const std::vector<int> degrees{3, 4, 5, 6};
  struct Variant {
    const char* name;
    ProtocolKind kind;
    bool assertions;
  };
  const std::vector<Variant> variants{
      {"BGP", ProtocolKind::Bgp, false},
      {"BGP+asrt", ProtocolKind::Bgp, true},
      {"BGP3", ProtocolKind::Bgp3, false},
      {"BGP3+asrt", ProtocolKind::Bgp3, true},
  };
  std::vector<std::string> labels;
  for (const auto& v : variants) {
    labels.emplace_back(v.name);
    addDegreeRow(spec.cells, v.name, degrees, [v](ScenarioConfig& cfg) {
      cfg.protocol = v.kind;
      cfg.protoCfg.bgp.consistencyAssertions = v.assertions;
    });
  }
  for (const auto& v : variants) {
    for (const int d : degrees) {
      CellSpec cell;
      cell.id = std::string{"Tdown/"} + v.name + "/degree=" + std::to_string(d);
      cell.label = v.name;
      cell.config = baseConfig();
      cell.config.protocol = v.kind;
      cell.config.mesh.degree = d;
      cell.config.protoCfg.bgp.consistencyAssertions = v.assertions;
      // Tdown: disconnect the receiver entirely at t=failAt and time until
      // all routes are withdrawn network-wide. Traffic stops at the cut —
      // this measures routing, not delivery.
      cell.config.injectFailure = false;
      cell.config.faultPlan = fault::FaultPlan::parse("400:partition:dst");
      cell.config.trafficStop = cell.config.failAt;
      cell.config.endAt = Time::seconds(1600.0);  // plain BGP explores for many MRAIs
      spec.cells.push_back(std::move(cell));
    }
  }
  spec.render = [degrees, labels, variants](const ExperimentSpec&, const ExperimentResult& res) {
    const auto rows = labels.size();
    const auto cols = degrees.size();
    report::header("Extension E4", "packet drops due to no route");
    report::degreeSweep("packets", degrees, labels,
                        matrix(res, 0, rows, cols,
                               [](const CellResult& c) { return c.agg.dropsNoRoute; }));
    report::header("Extension E4", "TTL expirations (transient loops)");
    report::degreeSweep("packets", degrees, labels,
                        matrix(res, 0, rows, cols,
                               [](const CellResult& c) { return c.agg.dropsTtl; }));
    report::header("Extension E4", "network routing convergence time");
    report::degreeSweep("seconds", degrees, labels,
                        matrix(res, 0, rows, cols, [](const CellResult& c) {
                          return c.agg.routingConvergenceSec;
                        }));
    report::header("Extension E4, Tdown", "receiver disconnected; time until all routes gone");
    std::printf("%-10s", "variant");
    for (const int d : degrees) std::printf("   degree-%-5d", d);
    std::printf("(seconds)\n");
    const std::size_t tdownBase = rows * cols;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      std::printf("%-10s", variants[v].name);
      for (std::size_t c = 0; c < cols; ++c) {
        std::printf("   %12.2f", res.cells[tdownBase + v * cols + c].agg.routingConvergenceSec);
      }
      std::printf("\n");
    }
  };
  registerExperiment(std::move(spec));
}

// E5 — DUAL (diffusing computations) vs the DV/PV family: hard
// loop-freedom traded against route freezes.
void registerDual() {
  ExperimentSpec spec;
  spec.name = "ext_dual";
  spec.title = "Extension E5: DUAL vs DV/PV family";
  spec.description = "loop-free DUAL vs DBF/BGP3: black-holes, loops, convergence";
  spec.defaultRuns = 20;
  spec.paperRuns = 20;
  const std::vector<int> degrees{3, 4, 5, 6, 8};
  const std::vector<ProtocolKind> kinds{ProtocolKind::Dbf, ProtocolKind::Bgp3,
                                        ProtocolKind::Dual};
  for (const auto kind : kinds) {
    addDegreeRow(spec.cells, toString(kind), degrees,
                 [kind](ScenarioConfig& cfg) { cfg.protocol = kind; });
  }
  spec.render = [degrees, kinds](const ExperimentSpec&, const ExperimentResult& res) {
    const auto labels = names(kinds);
    const auto rows = labels.size();
    const auto cols = degrees.size();
    report::header("Extension E5", "packet drops due to no route (black-holes)");
    report::degreeSweep("packets", degrees, labels,
                        matrix(res, 0, rows, cols,
                               [](const CellResult& c) { return c.agg.dropsNoRoute; }));
    report::header("Extension E5", "TTL expirations (loops — must be 0 for DUAL)");
    report::degreeSweep("packets", degrees, labels,
                        matrix(res, 0, rows, cols,
                               [](const CellResult& c) { return c.agg.dropsTtl; }));
    report::header("Extension E5", "network routing convergence time");
    report::degreeSweep("seconds", degrees, labels,
                        matrix(res, 0, rows, cols, [](const CellResult& c) {
                          return c.agg.routingConvergenceSec;
                        }));
    std::printf("\nReading: DUAL's freeze window is only as long as its diffusion, and a\n"
                "diffusion over millisecond links completes in milliseconds — so the\n"
                "delivery cost the paper attributes to loop-free algorithms (§2) barely\n"
                "materializes here; DUAL pairs DBF-grade switch-over with hard\n"
                "loop-freedom. The paper's critique presumes slow diffusions (realistic\n"
                "for WAN latencies and large diameters); scale the topology or delays up\n"
                "and the freeze tax returns.\n");
  };
  registerExperiment(std::move(spec));
}

// E6 — availability under continuous churn: long-run delivery ratio with
// every link flapping (MTBF 120 s, MTTR 10 s).
void registerChurn() {
  ExperimentSpec spec;
  spec.name = "ext_churn";
  spec.title = "Extension E6: delivery ratio under link churn";
  spec.description = "long-run delivery ratio with every link flapping";
  spec.defaultRuns = 10;
  spec.paperRuns = 10;
  const std::vector<int> degrees{3, 4, 6, 8};
  const std::vector<ProtocolKind> kinds{ProtocolKind::Rip, ProtocolKind::Dbf,
                                        ProtocolKind::Bgp3, ProtocolKind::LinkState,
                                        ProtocolKind::Dual};
  for (const auto kind : kinds) {
    for (const int d : degrees) {
      CellSpec cell;
      cell.id = std::string{toString(kind)} + "/degree=" + std::to_string(d);
      cell.label = toString(kind);
      cell.config = baseConfig();
      cell.config.protocol = kind;
      cell.config.mesh.degree = d;
      // Every link flaps for the whole traffic window; churn replaces the
      // single surgical failure.
      cell.config.injectFailure = false;
      cell.config.trafficStop = Time::seconds(790.0);
      cell.config.faultPlan = fault::FaultPlan::parse("390:churn:120:10:790");
      spec.cells.push_back(std::move(cell));
    }
  }
  spec.render = [degrees, kinds](const ExperimentSpec&, const ExperimentResult& res) {
    const auto labels = names(kinds);
    report::header("Extension E6", "delivery ratio (%) with every link flapping "
                                   "(MTBF 120 s, MTTR 10 s)");
    report::degreeSweep("percent", degrees, labels,
                        matrix(res, 0, labels.size(), degrees.size(), [](const CellResult& c) {
                          return 100.0 * c.totals.delivered / c.totals.sent;
                        }));
    std::printf("\nReading: Baran's redundancy thesis in one table — every protocol climbs\n"
                "toward ~100%% as degree grows, but the event-driven protocols (LS's\n"
                "flood+SPF and DUAL's feasible-successor switch) get there at much lower\n"
                "connectivity than RIP, which re-pays its 30 s black-hole tax on every\n"
                "flap. The timer-paced protocols (DBF's 1-5 s damping, BGP3's 3 s MRAI)\n"
                "sit in between: each flap costs them a damping interval.\n");
  };
  registerExperiment(std::move(spec));
}

// E7 — declarative fault-plan severity ladder: the same (protocol, mesh)
// grid pushed through increasingly hostile FaultPlans, from a clean
// baseline to a crash under ambient loss. Everything is plain declarative
// config (fault-plan= round-trips through the artifact).
void registerFaultplan() {
  ExperimentSpec spec;
  spec.name = "ext_faultplan";
  spec.title = "Extension E7: delivery across a fault severity ladder";
  spec.description = "FaultPlan ladder: clean, link-fail, silent-fail, crash, partition, loss+crash";
  spec.defaultRuns = 5;
  spec.paperRuns = 15;

  // Nodes 0..20 = rows 0-2 of the 7x7 mesh: cutting them off separates
  // the sender (row 0) from the receiver (row 6). Node 24 is the center.
  std::string topHalf;
  for (int n = 0; n <= 20; ++n) {
    if (n != 0) topHalf += ',';
    topHalf += std::to_string(n);
  }
  struct Severity {
    std::string name;
    std::string plan;
  };
  const std::vector<Severity> severities{
      {"baseline", ""},
      {"link-fail", "400:fail:24-25;460:recover:24-25"},
      {"silent-fail", "399:detect:24-25:2000;400:fail:24-25;460:recover:24-25"},
      {"crash", "400:crash:24;460:restart:24"},
      {"partition", "400:partition:" + topHalf + ";460:heal:" + topHalf},
      {"loss+crash", "395:loss:*:0.02;400:crash:24;460:restart:24;500:loss:*:0"},
  };

  for (const auto kind : kPaperProtocols) {
    for (const auto& sev : severities) {
      CellSpec cell;
      cell.id = std::string{toString(kind)} + "/" + sev.name;
      cell.label = toString(kind);
      cell.config = baseConfig();
      cell.config.protocol = kind;
      cell.config.injectFailure = false;  // the plan is the whole fault schedule
      cell.config.faultPlan = fault::FaultPlan::parse(sev.plan);
      spec.cells.push_back(std::move(cell));
    }
  }

  spec.render = [severities](const ExperimentSpec&, const ExperimentResult& res) {
    const std::size_t cols = severities.size();
    report::header("Extension E7", "delivery ratio (%) across the fault severity ladder");
    std::printf("%-6s", "proto");
    for (const auto& sev : severities) std::printf("   %11s", sev.name.c_str());
    std::printf("\n");
    for (std::size_t p = 0; p < kPaperProtocols.size(); ++p) {
      std::printf("%-6s", toString(kPaperProtocols[p]));
      for (std::size_t s = 0; s < cols; ++s) {
        const CellStats& t = res.cells[p * cols + s].totals;
        std::printf("   %11.2f", t.sent > 0 ? 100.0 * t.delivered / t.sent : 0.0);
      }
      std::printf("\n");
    }
    report::header("Extension E7", "network routing convergence time (s)");
    std::printf("%-6s", "proto");
    for (const auto& sev : severities) std::printf("   %11s", sev.name.c_str());
    std::printf("\n");
    for (std::size_t p = 0; p < kPaperProtocols.size(); ++p) {
      std::printf("%-6s", toString(kPaperProtocols[p]));
      for (std::size_t s = 0; s < cols; ++s) {
        std::printf("   %11.2f", res.cells[p * cols + s].agg.routingConvergenceSec);
      }
      std::printf("\n");
    }
    std::printf("\nReading: the surgical link failure is the paper's experiment; the rest of\n"
                "the ladder stresses what it abstracts away. Silent failures stretch every\n"
                "protocol's outage by the detection gap; a crash is simultaneous failure of\n"
                "all the node's links plus total RIB loss at restart; the partition shows\n"
                "the no-route floor when no alternate path exists at any degree; ambient\n"
                "loss on top of a crash lengthens convergence for protocols that rely on\n"
                "per-message reliability (BGP's transport retransmits, DV's periodic\n"
                "refresh).\n");
  };
  registerExperiment(std::move(spec));
}

// E8 — real-world topologies: the paper's fail/reconverge scenario run by
// every protocol on loaded backbone graphs (the embedded named library,
// topo/loader.hpp) instead of the synthetic mesh family. Sender/receiver
// are seed-chosen router pairs, so replicas sample many backbone paths.
void registerRealTopo() {
  ExperimentSpec spec;
  spec.name = "ext_realtopo";
  spec.title = "Extension E8: real-world topologies (Abilene, NSFNET)";
  spec.description = "every protocol through one failure on loaded backbone graphs";
  spec.defaultRuns = 10;
  spec.paperRuns = 10;
  const std::vector<std::string> graphs{"abilene", "nsfnet"};
  const std::vector<ProtocolKind> kinds{ProtocolKind::Rip,  ProtocolKind::Dbf,
                                        ProtocolKind::Bgp,  ProtocolKind::Bgp3,
                                        ProtocolKind::LinkState, ProtocolKind::Dual};
  for (const auto& graph : graphs) {
    for (const auto kind : kinds) {
      CellSpec cell;
      cell.id = graph + "/" + toString(kind);
      cell.label = toString(kind);
      cell.config = baseConfig();
      cell.config.protocol = kind;
      cell.config.topology = TopologyKind::Named;
      cell.config.named.graph = graph;
      spec.cells.push_back(std::move(cell));
    }
  }
  spec.render = [graphs, kinds](const ExperimentSpec&, const ExperimentResult& res) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      report::header("Extension E8: " + graphs[g],
                     "one link failure on the loaded backbone graph");
      std::printf("%-6s %12s %12s %12s %12s %12s\n", "proto", "delivered%", "no-route",
                  "ttl-drops", "rt-conv(s)", "fwd-conv(s)");
      for (std::size_t p = 0; p < kinds.size(); ++p) {
        const CellResult& c = res.cells[g * kinds.size() + p];
        std::printf("%-6s %12.2f %12.2f %12.2f %12.2f %12.2f\n", toString(kinds[p]),
                    c.totals.sent > 0 ? 100.0 * c.totals.delivered / c.totals.sent : 0.0,
                    c.agg.dropsNoRoute, c.agg.dropsTtl, c.agg.routingConvergenceSec,
                    c.agg.forwardingConvergenceSec);
      }
    }
    std::printf("\nReading: real backbones are sparser than any paper mesh (average degree\n"
                "~2.5), so a single trunk failure more often removes the only short path —\n"
                "the black-hole protocols (RIP) pay their full timeout tax, while the\n"
                "alternate-path and loop-free families (LS, DUAL) ride it out. The mesh\n"
                "findings transfer: ordering is preserved, magnitudes are set by degree.\n");
  };
  registerExperiment(std::move(spec));
}

// E9 — hello-based failure detection and route-flap damping
// (docs/failure-detection.md). Part A sweeps the hello interval against
// the oracle detector: delivery degrades and reconvergence stretches as
// hellos slow down, because the dead interval *is* the black-hole window
// every protocol shares before its own convergence even starts. Part B
// drives a dense link-flap burst through damped and undamped
// configurations on topologies where each mechanism's real effect is
// visible: RFD suppressing a flapping ring link (the win), hold-down
// blocking a legitimate alternate (the cost), and hold-down smothering
// counting episodes on an alternate-free bridge (the loop-suppression
// payoff).
void registerDetection() {
  ExperimentSpec spec;
  spec.name = "ext_detection";
  spec.title = "Extension E9: failure detection latency and route-flap damping";
  spec.description = "delivery vs hello interval (vs oracle); flap burst with damping on/off";
  spec.defaultRuns = 5;
  spec.paperRuns = 5;

  const std::vector<ProtocolKind> kinds{ProtocolKind::Rip, ProtocolKind::Dbf,
                                        ProtocolKind::Bgp, ProtocolKind::LinkState,
                                        ProtocolKind::Dual};
  // 0 = oracle (hello off, 50 ms detect); otherwise the hello interval in
  // seconds with the dead interval at the conventional 3.5x.
  const std::vector<double> intervals{0.0, 0.5, 1.0, 2.0, 4.0};
  for (const auto kind : kinds) {
    for (const double iv : intervals) {
      CellSpec cell;
      const std::string ivName = iv == 0.0 ? "oracle" : "hello=" + std::to_string(iv).substr(0, 3);
      cell.id = std::string{toString(kind)} + "/" + ivName;
      cell.label = toString(kind);
      cell.config = baseConfig();
      cell.config.protocol = kind;
      if (iv > 0.0) {
        cell.config.hello.enabled = true;
        cell.config.hello.interval = Time::seconds(iv);
        cell.config.hello.dead = Time::seconds(3.5 * iv);
      }
      spec.cells.push_back(std::move(cell));
    }
  }

  // Part B: a dense link-flap burst (12 flaps, 6 s period: 3 s down,
  // 3 s up) through damped and undamped configurations, on topologies
  // chosen so each damping mechanism's actual effect shows:
  //   - BGP3 on an 8-ring whose pinned flow crosses the flapping link.
  //     RFD suppresses the flapping path after two flaps, parking the
  //     flow on the stable long way around — the clean damping win.
  //   - RIP on the same ring: hold-down refuses the legitimate alternate
  //     too, so the stability/availability trade's cost side shows.
  //   - RIP on a bridge (no alternate path) with split horizon off: every
  //     flap ignites a counting episode; hold-down suppresses the loops
  //     entirely (TTL losses go to zero).
  struct FlapPair {
    const char* name;
    ProtocolKind kind;
    std::function<void(ScenarioConfig&)> tweakBase;    ///< topology + protocol knobs
    std::function<void(ScenarioConfig&)> tweakDamped;  ///< damping on top
  };
  auto ring = [](ScenarioConfig& cfg) {
    cfg.topology = TopologyKind::Inline;
    cfg.inlineTopo.nodes = 8;
    cfg.inlineTopo.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 7}};
    cfg.pinSrc = 0;
    cfg.pinDst = 3;
    cfg.faultPlan = fault::FaultPlan::parse("400:flapburst:1-2:12:6");
  };
  auto bridge = [](ScenarioConfig& cfg) {
    cfg.topology = TopologyKind::Inline;
    cfg.inlineTopo.nodes = 4;
    cfg.inlineTopo.edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
    cfg.pinSrc = 0;
    cfg.pinDst = 3;
    cfg.protoCfg.dv.splitHorizon = SplitHorizonMode::None;
    cfg.faultPlan = fault::FaultPlan::parse("400:flapburst:2-3:12:6");
  };
  const std::vector<FlapPair> flapPairs{
      {"BGP3/ring", ProtocolKind::Bgp3, ring,
       [](ScenarioConfig& cfg) { cfg.protoCfg.bgp.flapDampingEnabled = true; }},
      {"RIP/ring", ProtocolKind::Rip, ring,
       [](ScenarioConfig& cfg) { cfg.protoCfg.dv.holdDownSec = 2.0; }},
      {"RIP/bridge", ProtocolKind::Rip, bridge,
       [](ScenarioConfig& cfg) { cfg.protoCfg.dv.holdDownSec = 2.0; }},
  };
  for (const auto& pair : flapPairs) {
    for (const bool damped : {false, true}) {
      CellSpec cell;
      cell.id = std::string{"flap/"} + pair.name + (damped ? "/damped" : "/raw");
      cell.label = pair.name;
      cell.config = baseConfig();
      cell.config.protocol = pair.kind;
      cell.config.injectFailure = false;  // the flap burst is the whole schedule
      pair.tweakBase(cell.config);
      if (damped) pair.tweakDamped(cell.config);
      spec.cells.push_back(std::move(cell));
    }
  }

  std::vector<std::string> flapNames;
  flapNames.reserve(flapPairs.size());
  for (const auto& pair : flapPairs) flapNames.emplace_back(pair.name);

  spec.render = [kinds, intervals, flapNames](const ExperimentSpec&,
                                              const ExperimentResult& res) {
    const std::size_t cols = intervals.size();
    report::header("Extension E9, part A", "delivery ratio (%) vs hello interval");
    std::printf("%-6s", "proto");
    for (const double iv : intervals) {
      if (iv == 0.0) {
        std::printf("   %11s", "oracle");
      } else {
        std::printf("   hello=%4.1fs", iv);
      }
    }
    std::printf("\n");
    for (std::size_t p = 0; p < kinds.size(); ++p) {
      std::printf("%-6s", toString(kinds[p]));
      for (std::size_t c = 0; c < cols; ++c) {
        const CellStats& t = res.cells[p * cols + c].totals;
        std::printf("   %11.2f", t.sent > 0 ? 100.0 * t.delivered / t.sent : 0.0);
      }
      std::printf("\n");
    }
    report::header("Extension E9, part A", "forwarding reconvergence after failure (s)");
    std::printf("%-6s", "proto");
    for (const double iv : intervals) {
      if (iv == 0.0) {
        std::printf("   %11s", "oracle");
      } else {
        std::printf("   hello=%4.1fs", iv);
      }
    }
    std::printf("\n");
    for (std::size_t p = 0; p < kinds.size(); ++p) {
      std::printf("%-6s", toString(kinds[p]));
      for (std::size_t c = 0; c < cols; ++c) {
        std::printf("   %11.2f", res.cells[p * cols + c].agg.forwardingConvergenceSec);
      }
      std::printf("\n");
    }
    const std::size_t flapBase = kinds.size() * cols;
    report::header("Extension E9, part B",
                   "12-flap burst (3s down/3s up) of one pinned-path link; damping off vs on");
    std::printf("%-12s %11s %11s %11s %11s %9s %9s\n", "cell", "raw-deliv%", "dmp-deliv%",
                "raw-norte", "dmp-norte", "raw-ttl", "dmp-ttl");
    for (std::size_t p = 0; p < flapNames.size(); ++p) {
      const CellResult& raw = res.cells[flapBase + p * 2];
      const CellResult& damped = res.cells[flapBase + p * 2 + 1];
      std::printf("%-12s %11.2f %11.2f %11.2f %11.2f %9.2f %9.2f\n", flapNames[p].c_str(),
                  raw.totals.sent > 0 ? 100.0 * raw.totals.delivered / raw.totals.sent : 0.0,
                  damped.totals.sent > 0 ? 100.0 * damped.totals.delivered / damped.totals.sent
                                         : 0.0,
                  raw.agg.dropsNoRoute, damped.agg.dropsNoRoute, raw.agg.dropsTtl,
                  damped.agg.dropsTtl);
    }
    std::printf("\nReading: part A's delivery columns are monotone in the hello interval —\n"
                "before any protocol can converge it must first *notice*, and with a dead\n"
                "interval of 3.5x the hello period the notice time dwarfs the millisecond\n"
                "oracle. Part B shows both sides of the damping trade. BGP3/ring: RFD\n"
                "suppresses the flapping route after two flaps and parks the flow on the\n"
                "stable long path, delivering more with fewer no-route and loop drops —\n"
                "damping measurably suppresses flap-driven loss. RIP/ring: hold-down also\n"
                "refuses the *legitimate* alternate during the window, so where an\n"
                "alternate exists damping costs availability. RIP/bridge (no alternate,\n"
                "split horizon off): every flap re-ignites counting; hold-down converts\n"
                "all TTL (loop) losses into clean no-route drops — loop suppression is\n"
                "exactly what the mechanism buys.\n");
  };
  registerExperiment(std::move(spec));
}

}  // namespace

void registerExtensionExperiments() {
  registerTcp();
  registerMultifailure();
  registerRandomTopo();
  registerAssertions();
  registerDual();
  registerChurn();
  registerFaultplan();
  registerRealTopo();
  registerDetection();
}

}  // namespace rcsim::exp
