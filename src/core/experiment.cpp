#include "core/experiment.hpp"

#include <cmath>
#include <exception>

#include "core/fingerprint.hpp"
#include "obs/metrics.hpp"

namespace rcsim {

RunResult runScenario(const ScenarioConfig& cfg) {
  Scenario scenario{cfg};
  scenario.run();
  return summarizeRun(scenario);
}

RunResult summarizeRun(Scenario& scenario) {
  const ScenarioConfig& cfg = scenario.config();
  auto& net = scenario.network();
  auto& stats = scenario.stats();

  RunResult r;
  r.protocol = cfg.protocol;
  r.degree = cfg.mesh.degree;
  r.seed = cfg.seed;
  r.sent = scenario.packetsSent();
  r.data = stats.data();
  r.dataAfterFailure = stats.dataAfterWatermark();
  r.control = stats.control();
  r.loopEscapedDeliveries = stats.loopEscapedDeliveries();
  r.controlMessages = stats.tally().controlMessages;
  r.controlBytes = stats.tally().controlBytes;
  r.controlMessagesAfterFailure = stats.controlMessagesAfterWatermark();
  for (const auto& flow : scenario.flows()) {
    if (flow.tcp) {
      r.tcpGoodputPackets += flow.tcp->goodputPackets();
      r.tcpRetransmissions += flow.tcp->retransmissions();
    }
  }
  for (NodeId id = 0; id < static_cast<NodeId>(net.nodeCount()); ++id) {
    if (const auto* proto = net.node(id).protocol()) {
      const auto tc = proto->transportCounters();
      r.transportRetransmissions += tc.retransmissions;
      r.transportSessionResets += tc.sessionResets;
    }
  }
  const fault::FaultInjector& faults = *scenario.faultInjector();
  r.transportRetransmissions += faults.lostTransportCounters().retransmissions;
  r.transportSessionResets += faults.lostTransportCounters().sessionResets;

  r.routingConvergenceSec = stats.routeLog().convergenceSeconds();
  r.routeChangesAfterFailure = stats.routeLog().changesAfterWatermark();
  {
    // Forwarding-path forensics from the failure on: distinct paths, the
    // last path change (Figure 6a) and whether any path looped/black-holed.
    const Time watermark = cfg.failureWatermark();
    Time lastChange = watermark;
    for (const auto& e : stats.pathWalker().events()) {
      if (e.t < watermark) continue;
      ++r.transientPaths;
      lastChange = e.t;
      r.sawLoop = r.sawLoop || e.loop;
      r.sawBlackhole = r.sawBlackhole || e.blackhole;
    }
    r.forwardingConvergenceSec = (lastChange - watermark).toSeconds();
  }

  r.preFailurePathShortest = faults.preFailurePathShortest();
  r.preFailurePathHops = faults.preFailurePathHops();
  {
    bool loop = false;
    bool blackhole = false;
    const auto path = net.fibWalk(scenario.sender(), scenario.receiver(), &loop, &blackhole);
    const int finalHops = static_cast<int>(path.size()) - 1;
    r.finalPathShortest = !loop && !blackhole &&
                          finalHops == net.shortestDistLive(scenario.sender(),
                                                            scenario.receiver());
  }

  // Round up: a fractional final second still accumulates deliveries, and
  // truncating here would silently drop that bucket from the series.
  const int endSec = static_cast<int>(std::ceil(cfg.endAt.toSeconds()));
  r.throughput.resize(static_cast<std::size_t>(endSec), 0.0);
  r.meanDelay.resize(static_cast<std::size_t>(endSec), 0.0);
  for (int s = 0; s < endSec; ++s) {
    r.throughput[static_cast<std::size_t>(s)] = stats.series().throughputAt(s);
    r.meanDelay[static_cast<std::size_t>(s)] = stats.series().meanDelayAt(s);
  }
  r.failSec = static_cast<int>(cfg.failAt.toSeconds());
  r.eventsExecuted = scenario.scheduler().executedEvents();
  r.fibDigestBefore = scenario.fibDigestBefore();
  r.fibDigestAfter = scenario.fibDigestAfter();
  if (auto* anatomy = scenario.convergenceAnalyzer()) {
    if (!anatomy->finished()) anatomy->finish();  // summarizing a partial run
    r.anatomy = anatomy->report().summary();
  }

  // Scheduler hot-path totals go to whatever registry the surrounding
  // executor installed (RunResult's layout is frozen by golden digests, so
  // this rides the thread-local side channel instead).
  if (auto* metrics = obs::currentMetrics()) {
    const auto& sched = scenario.scheduler();
    metrics->counter("sim.events_executed").add(sched.executedEvents());
    metrics->counter("sim.events_scheduled").add(sched.scheduledEvents());
    metrics->counter("sim.events_cancelled").add(sched.cancelledEvents());
    metrics->histogram("sim.pool_slots").observe(static_cast<double>(sched.poolCapacity()));
    // Per-event-kind scheduler timing profile (docs/observability.md).
    for (int k = 0; k < kEventKindCount; ++k) {
      const auto kind = static_cast<EventKind>(k);
      const auto& ks = sched.kindStats(kind);
      if (ks.scheduled == 0) continue;
      const std::string prefix = std::string{"sim.kind."} + toString(kind);
      metrics->counter(prefix + ".scheduled").add(ks.scheduled);
      metrics->counter(prefix + ".executed").add(ks.executed);
    }
    // Convergence-anatomy rollup, so sweeps expose episode counts and drop
    // attribution without widening the frozen Aggregate layout. (The
    // executor feeds the per-run detection/convergence histograms itself,
    // in seed order.)
    if (r.anatomy.episodes > 0 || r.anatomy.delivered > 0 || r.anatomy.controlMessages > 0) {
      metrics->counter("anatomy.episodes").add(r.anatomy.episodes);
      metrics->counter("anatomy.fib_churn").add(r.anatomy.fibChurn);
      metrics->counter("anatomy.drops.loop").add(r.anatomy.dropsLoop);
      metrics->counter("anatomy.drops.blackhole").add(r.anatomy.dropsBlackhole);
      metrics->counter("anatomy.drops.ttl").add(r.anatomy.dropsTtl);
      metrics->counter("anatomy.drops.queue").add(r.anatomy.dropsQueue);
      metrics->counter("anatomy.control.messages").add(r.anatomy.controlMessages);
      metrics->counter("anatomy.control.bytes").add(r.anatomy.controlBytes);
    }
  }
  return r;
}

std::string replayDivergence(Scenario& scenario, const std::vector<obs::TraceEvent>& trace) {
  const obs::ReplayOptions opt = scenario.replayOptions();
  const obs::ConvergenceAnalyzer* analyzer = scenario.convergenceAnalyzer();
  const obs::PathWalker& walker = scenario.stats().pathWalker();
  try {
    const obs::ReplayResult replay = obs::replayTrace(trace, opt);
    if (analyzer != nullptr) {
      const obs::AnatomyReport& live = analyzer->report();
      if (live.pathEvents != replay.pathEvents) return "pathEvents";
      if (live.loopWindows != replay.loopWindows) return "loopWindows";
      if (live.blackholeWindows != replay.blackholeWindows) return "blackholeWindows";
      if (live.kindCounts != replay.kindCounts) return "kindCounts";
      if (live.delivered != replay.delivered || live.dropped != replay.dropped) {
        return "planeCounters";
      }
    }
    // The stats walker follows RouteChange events, never the FIB itself.
    if (walker.events() != replay.pathEvents) return "walkerEvents";
    if (walker.currentPath() != scenario.network().fibWalk(opt.src, opt.dst)) {
      return "walkerPath";
    }
    if (analyzer != nullptr) {
      // The same analyzer over the recorded stream: catches a live-vs-
      // recorded event mismatch (a tracer fan-out bug).
      const obs::AnatomyReport& live = analyzer->report();
      const obs::AnatomyReport offline = obs::analyzeTrace(trace, opt);
      if (live.episodes != offline.episodes) return "episodes";
      if (live.perNodeControlMessages != offline.perNodeControlMessages ||
          live.perNodeControlBytes != offline.perNodeControlBytes) {
        return "perNodeControl";
      }
      if (anatomyDigest(live.summary()) != anatomyDigest(offline.summary())) {
        return "anatomyDigest";
      }
    }
  } catch (const std::exception&) {
    return "replayThrew";
  }
  return "";
}

ScenarioConfig largeMeshConfig() {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::Dbf;
  cfg.mesh = MeshSpec{100, 100, 4};
  cfg.seed = 1;
  cfg.ttl = 250;  // the post-failure path can exceed the 198-hop diameter
  cfg.protoCfg.dv.infinityMetric = 255;
  cfg.protoCfg.dv.maxEntriesPerMessage = 1000;
  // Tight damping keeps the convergence wave moving; the huge periodic and
  // timeout intervals silence background refresh so the run measures the
  // triggered-update protocol, not 10,000 nodes' idle chatter.
  cfg.protoCfg.dv.triggerDampMinSec = 0.02;
  cfg.protoCfg.dv.triggerDampMaxSec = 0.1;
  cfg.protoCfg.dv.periodicInterval = Time::seconds(10000.0);
  cfg.protoCfg.dv.timeout = Time::seconds(100000.0);
  cfg.trafficStart = Time::seconds(20.0);
  cfg.failAt = Time::seconds(23.0);
  cfg.trafficStop = Time::seconds(30.0);
  cfg.endAt = Time::seconds(40.0);
  return cfg;
}

}  // namespace rcsim
