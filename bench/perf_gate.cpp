// Performance regression gate for the sim-core hot path (docs/benchmarking.md).
//
// Measures the scheduler's event throughput and the four paper protocols'
// full-scenario wall time with a self-contained harness (no google-benchmark
// runtime, so numbers are comparable across library builds), emits them as
// BENCH_simcore.json, and — given a baseline — fails with a per-metric diff
// when anything regresses beyond the tolerance.
//
//   perf_gate --json BENCH_simcore.json            # refresh the baseline
//   perf_gate --baseline BENCH_simcore.json        # gate: compare, exit 1 on regression
//   perf_gate --smoke --benchmark_min_time=0.01    # ctest smoke run (fast, no gate)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/experiment.hpp"
#include "core/json_lite.hpp"
#include "reference_scheduler.hpp"
#include "sim/scheduler.hpp"
#include "topo/graph_algo.hpp"
#include "topo/topology.hpp"

namespace {

using namespace rcsim;

constexpr int kScheduleRunEvents = 65536;
constexpr int kSelfReschedEvents = 65536;

double nowSec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Repeat `body` (which processes `items` items per call) until `minTimeSec`
/// has elapsed, in `reps` independent repetitions; return the best observed
/// items/sec (max over repetitions minimizes scheduler-noise pessimism).
double measureItemsPerSec(int items, double minTimeSec, int reps,
                          const std::function<void()>& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    int iters = 0;
    const double start = nowSec();
    double elapsed = 0.0;
    do {
      body();
      ++iters;
      elapsed = nowSec() - start;
    } while (elapsed < minTimeSec);
    const double rate = static_cast<double>(items) * iters / elapsed;
    if (rate > best) best = rate;
  }
  return best;
}

template <typename Sched>
double benchScheduleRun() {
  Sched sched;
  int fired = 0;
  for (int i = 0; i < kScheduleRunEvents; ++i) {
    sched.scheduleAt(Time::microseconds(i % 997), [&fired] { ++fired; });
  }
  sched.run();
  return static_cast<double>(fired);
}

double benchSelfResched() {
  Scheduler sched;
  int remaining = kSelfReschedEvents;
  std::function<void()> tick = [&] {
    if (--remaining > 0) sched.scheduleAfter(Time::microseconds(1), tick);
  };
  sched.scheduleAfter(Time::microseconds(1), tick);
  sched.run();
  return static_cast<double>(remaining);
}

/// Best-of-`reps` wall milliseconds of one full scenario run.
double benchScenarioMs(const ScenarioConfig& cfg, const char* name, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double start = nowSec();
    const RunResult result = runScenario(cfg);
    const double ms = (nowSec() - start) * 1e3;
    if (result.sent == 0) std::fprintf(stderr, "warning: %s scenario sent 0 packets\n", name);
    if (ms < best) best = ms;
  }
  return best;
}

/// The default 7x7 degree-4 scenario every scenario row runs.
ScenarioConfig paperScenario(ProtocolKind kind) {
  ScenarioConfig cfg;
  cfg.protocol = kind;
  cfg.mesh.degree = 4;
  cfg.seed = 11;
  return cfg;
}

/// A reduced bench/e2e `dataplane_flows`: 32 small-packet CBR flows on the
/// DBF mesh with a 10 s traffic window and one failure, so the per-packet
/// path (scheduler, link delivery, forwarding) does nearly all the work.
ScenarioConfig dataplaneFlowsScenario() {
  ScenarioConfig cfg = paperScenario(ProtocolKind::Dbf);
  cfg.protoCfg.dv.infinityMetric = 64;
  cfg.ttl = 64;
  cfg.flows = 32;
  cfg.packetsPerSecond = 200.0;
  cfg.packetBytes = 64;
  cfg.trafficStart = Time::seconds(60.0);
  cfg.trafficStop = Time::seconds(70.0);
  cfg.failAt = Time::seconds(65.0);
  cfg.endAt = Time::seconds(72.0);
  return cfg;
}

/// The observers are gated absolutely on their CPU cost over a full
/// scenario, independent of the baseline file. The online convergence-
/// anatomy profiler must be cheap enough to stay on by default; the
/// invariant checker runs on every fuzzer execution and under
/// --check-invariants.
constexpr double kMaxAnatomyOverheadPct = 3.0;
constexpr double kMaxInvariantsOverheadPct = 10.0;

/// One ratio per interleaved pair of runs: the median over pairs discards
/// the pairs a load spike hit on one side only.
struct PairedRatios {
  std::vector<double> ratios;

  [[nodiscard]] double medianRatio() const {
    if (ratios.empty()) return 0.0;
    std::vector<double> v = ratios;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  }
  [[nodiscard]] double pct() const {
    return ratios.empty() ? 0.0 : (medianRatio() - 1.0) * 100.0;
  }
};

/// Events/sec of the schedule-run workload on `Sched`, measured in a child
/// process forked for this one measurement, so an engine never runs on the
/// memory another engine's run left behind; 0 if the child fails. One
/// untimed pass first, so the rate is the warm engine's, not the first
/// touch of its memory.
template <typename Sched>
double scheduleRunInChild(double minTimeSec) {
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    benchScheduleRun<Sched>();
    const double rate = measureItemsPerSec(kScheduleRunEvents, minTimeSec, 1,
                                           [] { benchScheduleRun<Sched>(); });
    const bool sent = write(fds[1], &rate, sizeof rate) == static_cast<ssize_t>(sizeof rate);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double rate = 0.0;
  if (pid < 0 || read(fds[0], &rate, sizeof rate) != static_cast<ssize_t>(sizeof rate)) {
    rate = 0.0;
  }
  close(fds[0]);
  if (pid > 0) waitpid(pid, nullptr, 0);
  return rate;
}

/// CPU time consumed by the calling thread, in seconds. Unlike wall time
/// it does not count the time the thread waits for a core on a loaded
/// machine.
double threadCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One observer's cost: per interleaved on/off pair of full DBF scenario
// runs, the ratio of the two runs' thread CPU times. The two variants
// execute the identical event sequence (the golden digests pin that), so
// the ratio isolates the observer's per-event cost. The two sides of a
// pair run back to back, alternating which goes first, so drift (thermal,
// load, allocator state — this runs right after the 100x100 converge) hits
// both equally; like pooled_speedup_vs_seed, the *ratio* is the load-immune
// number the gate holds to its absolute budget.
PairedRatios benchOverhead(bool ScenarioConfig::*observer, int pairs) {
  PairedRatios b;
  for (int r = 0; r < pairs; ++r) {
    double cpu[2] = {0.0, 0.0};  // [off, on]
    for (const bool on : {r % 2 == 0, r % 2 != 0}) {
      ScenarioConfig cfg = paperScenario(ProtocolKind::Dbf);
      cfg.*observer = on;
      const double start = threadCpuSec();
      static_cast<void>(runScenario(cfg));
      cpu[on ? 1 : 0] = threadCpuSec() - start;
    }
    if (cpu[0] > 0.0 && cpu[1] > 0.0) b.ratios.push_back(cpu[1] / cpu[0]);
  }
  return b;
}

/// Peak resident set size in MiB (VmHWM); 0 when /proc is unavailable.
double peakRssMb() {
#ifdef __linux__
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb);
      return static_cast<double>(kb) / 1024.0;
    }
  }
#endif
  return 0.0;
}

/// Best-of-`reps` wall milliseconds of `body`.
double benchMs(int reps, const std::function<void()>& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double start = nowSec();
    body();
    const double ms = (nowSec() - start) * 1e3;
    if (ms < best) best = ms;
  }
  return best;
}

struct Metrics {
  double scheduleRunEventsPerSec = 0.0;
  double seedScheduleRunEventsPerSec = 0.0;
  PairedRatios pooledSpeedup;  ///< pooled/reference events/sec, one per pair
  double selfReschedEventsPerSec = 0.0;
  std::vector<std::pair<std::string, double>> scenarioMs;  // stable order
  std::vector<std::pair<std::string, double>> topologyMs;  // stable order
  PairedRatios anatomy;
  PairedRatios invariants;
  double rssMb = 0.0;
};

/// The Internet-scale topology rows (docs/topologies.md). The converge row
/// runs the pinned-digest 100x100 scenario once — it is the one metric too
/// expensive to repeat, and the smoke run skips it entirely.
void collectTopology(Metrics& m, int reps, bool includeConverge) {
  m.topologyMs.emplace_back("mesh100x100_build", benchMs(reps, [] {
    const Topology topo = makeRegularMesh(MeshSpec{100, 100, 4});
    if (!topo.isConnected()) std::fprintf(stderr, "warning: 100x100 mesh disconnected?\n");
  }));
  m.topologyMs.emplace_back("dense_random_build", benchMs(reps, [] {
    RandomGraphSpec spec;
    spec.nodes = 200;
    spec.avgDegree = 150.0;
    spec.seed = 7;
    const Topology topo = makeRandomTopology(spec);
    if (topo.edges.size() != 15000u) std::fprintf(stderr, "warning: dense build edge count\n");
  }));
  m.topologyMs.emplace_back("abilene_sweep", benchMs(reps, [] {
    for (const ProtocolKind kind :
         {ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3}) {
      ScenarioConfig cfg;
      cfg.protocol = kind;
      cfg.topology = TopologyKind::Named;
      cfg.seed = 11;
      const RunResult result = runScenario(cfg);
      if (result.sent == 0) {
        std::fprintf(stderr, "warning: abilene %s scenario sent 0 packets\n", toString(kind));
      }
    }
  }));
  if (includeConverge) {
    m.topologyMs.emplace_back("mesh100x100_converge", benchMs(1, [] {
      const RunResult result = runScenario(largeMeshConfig());
      if (result.data.delivered == 0) {
        std::fprintf(stderr, "warning: 100x100 converge scenario delivered 0 packets\n");
      }
    }));
  }
}

Metrics collect(double minTimeSec, int reps, bool includeConverge) {
  Metrics m;
  // The pooled engine and the frozen pre-rewrite engine
  // (bench/reference_scheduler.hpp) run the identical workload in pairs of
  // back-to-back measurements, alternating which goes first, so a pair's
  // ratio is measured under the same load and flags. Each measurement is
  // its own child process forked before this process has run anything,
  // so neither engine inherits the other's heap.
  for (int r = 0; r < 2 * reps + 1; ++r) {
    double rate[2] = {0.0, 0.0};  // [pooled, reference]
    for (const bool pooled : {r % 2 == 0, r % 2 != 0}) {
      rate[pooled ? 0 : 1] = pooled ? scheduleRunInChild<Scheduler>(minTimeSec)
                                    : scheduleRunInChild<bench::ReferenceScheduler>(minTimeSec);
    }
    m.scheduleRunEventsPerSec = std::max(m.scheduleRunEventsPerSec, rate[0]);
    m.seedScheduleRunEventsPerSec = std::max(m.seedScheduleRunEventsPerSec, rate[1]);
    if (rate[0] > 0.0 && rate[1] > 0.0) m.pooledSpeedup.ratios.push_back(rate[0] / rate[1]);
  }
  m.selfReschedEventsPerSec =
      measureItemsPerSec(kSelfReschedEvents, minTimeSec, reps, [] { benchSelfResched(); });
  for (const ProtocolKind kind :
       {ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3}) {
    m.scenarioMs.emplace_back(toString(kind),
                              benchScenarioMs(paperScenario(kind), toString(kind), reps));
  }
  m.scenarioMs.emplace_back("dataplane_flows",
                            benchScenarioMs(dataplaneFlowsScenario(), "dataplane_flows", reps));
  collectTopology(m, reps, includeConverge);
  // Back-to-back pairs under the same load, like the pooled-vs-seed
  // scheduler pair above; extra pairs because a 3% bound needs less noise
  // than a 15% one.
  m.anatomy = benchOverhead(&ScenarioConfig::anatomy, reps * 4 + 1);
  m.invariants = benchOverhead(&ScenarioConfig::checkInvariants, reps * 4 + 1);
  m.rssMb = peakRssMb();
  return m;
}

std::string toJson(const Metrics& m) {
  std::ostringstream os;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string{buf};
  };
  os << "{\n";
  os << "  \"schema\": \"rcsim-bench-simcore-v1\",\n";
  os << "  \"scheduler\": {\n";
  os << "    \"schedule_run_events_per_sec\": " << num(m.scheduleRunEventsPerSec) << ",\n";
  os << "    \"self_resched_events_per_sec\": " << num(m.selfReschedEventsPerSec) << ",\n";
  os << "    \"seed_schedule_run_events_per_sec\": " << num(m.seedScheduleRunEventsPerSec)
     << ",\n";
  os << "    \"pooled_speedup_vs_seed\": " << num(m.pooledSpeedup.medianRatio()) << "\n";
  os << "  },\n";
  os << "  \"scenario_ms\": {\n";
  for (std::size_t i = 0; i < m.scenarioMs.size(); ++i) {
    os << "    \"" << m.scenarioMs[i].first << "\": " << num(m.scenarioMs[i].second)
       << (i + 1 < m.scenarioMs.size() ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"topology_ms\": {\n";
  for (std::size_t i = 0; i < m.topologyMs.size(); ++i) {
    os << "    \"" << m.topologyMs[i].first << "\": " << num(m.topologyMs[i].second)
       << (i + 1 < m.topologyMs.size() ? "," : "") << "\n";
  }
  os << "  },\n";
  for (const auto& [name, b] : {std::pair{"anatomy_overhead", &m.anatomy},
                                std::pair{"invariants_overhead", &m.invariants}}) {
    os << "  \"" << name << "\": {\n";
    os << "    \"pairs\": " << b->ratios.size() << ",\n";
    os << "    \"cpu_ratio_median\": " << num(b->medianRatio()) << ",\n";
    os << "    \"overhead_pct\": " << num(b->pct()) << "\n";
    os << "  },\n";
  }
  os << "  \"rss_mb\": " << num(m.rssMb) << "\n";
  os << "}\n";
  return os.str();
}

/// One gate check. `higherIsBetter` picks the regression direction.
bool checkMetric(const char* name, double baseline, double current, double tolerancePct,
                 bool higherIsBetter, int& failures) {
  if (baseline <= 0.0) return true;  // metric absent from the baseline: nothing to gate
  const double ratio = current / baseline;
  const double tol = tolerancePct / 100.0;
  const bool regressed = higherIsBetter ? ratio < 1.0 - tol : ratio > 1.0 + tol;
  std::printf("  %-34s baseline %12.2f  current %12.2f  (%+6.1f%%)%s\n", name, baseline,
              current, (ratio - 1.0) * 100.0, regressed ? "  << REGRESSION" : "");
  if (regressed) ++failures;
  return !regressed;
}

int compareAgainstBaseline(const Metrics& m, const std::string& path, double tolerancePct,
                           double rssTolerancePct) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "perf_gate: cannot read baseline %s\n", path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue base;
  try {
    base = parseJson(ss.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: malformed baseline %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  std::printf("perf gate vs %s (tolerance %.0f%%):\n", path.c_str(), tolerancePct);
  int failures = 0;
  const JsonValue& sched = base.at("scheduler");
  checkMetric("scheduler.schedule_run (ev/s)", sched.numberAt("schedule_run_events_per_sec"),
              m.scheduleRunEventsPerSec, tolerancePct, /*higherIsBetter=*/true, failures);
  checkMetric("scheduler.self_resched (ev/s)", sched.numberAt("self_resched_events_per_sec"),
              m.selfReschedEventsPerSec, tolerancePct, /*higherIsBetter=*/true, failures);
  if (sched.has("pooled_speedup_vs_seed") && !m.pooledSpeedup.ratios.empty()) {
    // The paired ratio is load-independent, so it gates the pooled
    // engine's advantage itself, not just absolute machine speed.
    checkMetric("scheduler.pooled_speedup_vs_seed",
                sched.numberAt("pooled_speedup_vs_seed"), m.pooledSpeedup.medianRatio(),
                tolerancePct, /*higherIsBetter=*/true, failures);
  }
  const JsonValue& scen = base.at("scenario_ms");
  for (const auto& [name, ms] : m.scenarioMs) {
    if (!scen.has(name)) continue;
    checkMetric(("scenario." + name + " (ms)").c_str(), scen.numberAt(name), ms, tolerancePct,
                /*higherIsBetter=*/false, failures);
  }
  if (base.has("topology_ms")) {
    const JsonValue& topo = base.at("topology_ms");
    for (const auto& [name, ms] : m.topologyMs) {
      if (!topo.has(name)) continue;
      checkMetric(("topology." + name + " (ms)").c_str(), topo.numberAt(name), ms, tolerancePct,
                  /*higherIsBetter=*/false, failures);
    }
  }
  // Observer costs gate against absolute budgets, not the baseline: on-by-
  // default anatomy must stay nearly free, and the invariant checker cheap
  // enough for every fuzzer execution.
  for (const auto& [name, b, budget] :
       {std::tuple{"anatomy_overhead_pct", &m.anatomy, kMaxAnatomyOverheadPct},
        std::tuple{"invariants_overhead_pct", &m.invariants, kMaxInvariantsOverheadPct}}) {
    if (b->ratios.empty()) continue;
    const double pct = b->pct();
    const bool over = pct > budget;
    std::printf("  %-34s budget   %9.2f%%  current   %+9.2f%%%s\n", name, budget, pct,
                over ? "  << REGRESSION" : "");
    if (over) ++failures;
  }
  if (base.has("rss_mb") && m.rssMb > 0.0) {
    // Peak RSS gates under its own (usually tighter) tolerance: memory is
    // far less noisy than wall time, so a 10% budget is realistic where a
    // 15% timing budget is not.
    checkMetric("rss_mb (peak, MiB)", base.numberAt("rss_mb"), m.rssMb, rssTolerancePct,
                /*higherIsBetter=*/false, failures);
  }
  if (failures > 0) {
    std::printf("perf gate: %d metric(s) regressed beyond %.0f%% — failing.\n", failures,
                tolerancePct);
    std::printf("If intentional, refresh with scripts/run_bench_gate.sh --update-baseline\n");
    return 1;
  }
  std::printf("perf gate: all metrics within tolerance.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonOut;
  std::string baseline;
  double tolerancePct = 15.0;
  double rssTolerancePct = -1.0;  // default: follow --tolerance
  double minTimeSec = 0.5;
  int reps = 3;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_gate: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](double min) -> double {
      const std::string v = value();
      char* end = nullptr;
      const double parsed = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || parsed < min) {
        std::fprintf(stderr, "perf_gate: %s wants a number >= %g, got \"%s\"\n", arg.c_str(), min,
                     v.c_str());
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "--json") {
      jsonOut = value();
    } else if (arg == "--baseline") {
      baseline = value();
    } else if (arg == "--tolerance") {
      tolerancePct = number(0.0);
    } else if (arg == "--rss-tolerance") {
      rssTolerancePct = number(0.0);
    } else if (arg == "--reps") {
      reps = static_cast<int>(number(1.0));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--benchmark_min_time=", 0) == 0) {
      minTimeSec = std::atof(arg.c_str() + std::strlen("--benchmark_min_time="));
    } else {
      std::fprintf(stderr,
                   "usage: perf_gate [--json PATH] [--baseline PATH] [--tolerance PCT]\n"
                   "                 [--rss-tolerance PCT] [--reps N] [--smoke]\n"
                   "                 [--benchmark_min_time=SEC]\n");
      return 2;
    }
  }
  if (smoke) {
    reps = 1;
    if (minTimeSec > 0.01) minTimeSec = 0.01;
  }

  const Metrics m = collect(minTimeSec, reps, /*includeConverge=*/!smoke);
  const std::string json = toJson(m);
  std::printf("%s", json.c_str());

  if (!jsonOut.empty()) {
    std::ofstream out{jsonOut};
    if (!out) {
      std::fprintf(stderr, "perf_gate: cannot write %s\n", jsonOut.c_str());
      return 2;
    }
    out << json;
  }
  // Self-check: what we emitted must parse back (keeps the smoke run honest).
  try {
    const JsonValue v = parseJson(json);
    if (v.at("scheduler").numberAt("schedule_run_events_per_sec") <= 0.0) {
      std::fprintf(stderr, "perf_gate: zero scheduler throughput?\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: emitted JSON does not parse: %s\n", e.what());
    return 2;
  }

  if (!baseline.empty()) {
    return compareAgainstBaseline(m, baseline, tolerancePct,
                                  rssTolerancePct >= 0.0 ? rssTolerancePct : tolerancePct);
  }
  return 0;
}
