// rcsim_e2e: end-to-end benchmark of the simulator, with per-layer
// attribution measured from outside it (bench/e2e/README.md).
//
//   rcsim_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//   rcsim_e2e --smoke --expect BENCHMARK.json [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// replicas serially with timed protocol decorators and a counting trace
// sink, prints the per-layer metrics, and writes the spans as JSON to
// DIR/trace-NAME-seedN.json. The
// last stdout line is always one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// API fence: this file uses only the public API that the planned
// simplifications of the simulator keep — ScenarioConfig, largeMeshConfig
// and FaultPlan::parse; Scenario (constructor, run, network, scheduler,
// attachTraceSink); summarizeRun;
// the digest functions (runResultDigest, aggregateDigest, fnv1aHexDigest)
// and Aggregate::over; Node::setProtocol; makeProtocol; Scheduler; the
// topology builders; obs::TraceSink and obs::analyzeTrace; SweepExecutor
// with ExperimentSpec/CellSpec, the result structs ExperimentResult,
// CellResult and CellStats, and writeArtifact. It never uses
// CellSpec::run, runMany, PathTracer, replayTrace, NetworkHooks,
// NetworkObserver, ChurnInjector or perf_gate internals, so those can be
// deleted without touching the benchmark.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/fingerprint.hpp"
#include "core/json_lite.hpp"
#include "exp/artifact.hpp"
#include "exp/executor.hpp"
#include "fault/plan.hpp"
#include "net/node.hpp"
#include "obs/anatomy.hpp"
#include "routing/factory.hpp"
#include "routing/linkstate.hpp"
#include "sim/scheduler.hpp"
#include "topo/topology.hpp"

namespace {

using namespace rcsim;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Linear interpolation between closest ranks; q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size in MiB (VmHWM of this process).
double peakRssMb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb);
      return static_cast<double>(kb) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json lists the same names with their bounds; the
// smoke test checks that the two agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"events_per_s", "events/s"},
    {"replicas_per_s", "replicas/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.setup_s", "s"},
    {"core.run_s", "s"},
    {"core.summarize_s", "s"},
    {"core.replica_s.p50", "s"},
    {"core.replica_s.p90", "s"},
    {"core.replicas", "count"},
    {"topo.build_s", "s"},
    {"routing.handler_s", "s"},
    {"routing.share", "fraction"},
    {"routing.calls", "count"},
    {"routing.messages", "count"},
    {"routing.ns_per_call", "ns"},
    {"routing.ls.spf_full", "count"},
    {"routing.ls.spf_incremental", "count"},
    {"routing.ls.spf_skip", "count"},
    {"sim.events_executed", "count"},
    {"sim.events_scheduled", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.cancel_ratio", "fraction"},
    {"sim.pool_slots", "count"},
    {"sim.kind.generic.executed", "count"},
    {"sim.kind.link.executed", "count"},
    {"sim.kind.protocol.executed", "count"},
    {"sim.kind.transport.executed", "count"},
    {"sim.kind.traffic.executed", "count"},
    {"sim.kind.fault.executed", "count"},
    {"sim.kind.detector.executed", "count"},
    {"sim.outside_routing_s", "s"},
    {"sim.dispatch_events_per_s", "events/s"},
    {"net.data_hops", "count"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"net.delivery_ratio", "fraction"},
    {"net.control_msgs", "count"},
    {"net.control_bytes", "bytes"},
    {"net.route_changes", "count"},
    {"net.transport_retx", "count"},
    {"net.transport_resets", "count"},
    {"net.hellos", "count"},
    {"traffic.sent", "count"},
    {"obs.trace_events", "count"},
    {"obs.episodes", "count"},
    {"obs.analyze_ns_per_event", "ns"},
    {"obs.anatomy_overhead_pct", "%"},
    {"fault.invariants_overhead_pct", "%"},
    {"fault.applied", "count"},
    {"exp.pool_utilization", "fraction"},
    {"exp.artifact_write_s", "s"},
    {"bench.trace_overhead_pct", "%"},
};

// ---------------------------------------------------------------------------
// Workloads. Each is one ExperimentSpec run through a SweepExecutor: the
// sweeps on 2 workers (a closed loop — a worker claims its next replica only
// after finishing the last), the serial workloads on 1. `--seed S` gives
// replica seeds (S-1)*runs+1 .. S*runs in every cell, so seed 1 is the
// paper's default seed range and different seeds never share a replica.

/// The workloads, with each one's digests at --seed 1 and full size: the
/// workload digest (FNV-1a over the per-cell aggregateDigest values, in cell
/// order) and, where one is pinned elsewhere, the first replica's
/// runResultDigest.
struct WorkloadPin {
  const char* name;
  const char* digest;
  const char* replicaDigest;  ///< "" = none
};
constexpr WorkloadPin kWorkloads[] = {
    {"paper_sweep", "9be22ae5c741abf9", ""},
    {"ctrl_churn", "2627bf4ae0721ea7", ""},
    {"dataplane_flows", "723b9c2c8e1547ad", ""},
    // The 100x100 pin of tests/test_perf_gate.cpp.
    {"mesh100_converge", "a675f76ba0696e5b", "78d43b0f0b965e27"},
};

struct Workload {
  std::string name;
  exp::ExperimentSpec spec;
  int runs = 1;     ///< replicas per cell
  int threads = 1;  ///< executor workers
  std::string pin;  ///< expected digest; empty = unpinned (other seeds, smoke size)
  std::string replicaPin;  ///< expected runResultDigest of the first replica, or empty
  /// Mesh of the observer on/off pairs when one replica is too long to pair.
  std::optional<MeshSpec> pairMesh;

  [[nodiscard]] int replicas() const { return static_cast<int>(spec.cells.size()) * runs; }
};

Workload makeWorkload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.spec.name = "e2e_" + name;
  auto add = [&w](std::string id, const ScenarioConfig& cfg) {
    exp::CellSpec cell;
    cell.label = id;
    cell.id = std::move(id);
    cell.config = cfg;
    w.spec.cells.push_back(std::move(cell));
  };

  if (name == "paper_sweep") {
    // The Fig. 3 grid: 4 paper protocols x degree 3-16 on the 7x7 mesh.
    w.runs = smoke ? 1 : 10;
    w.threads = 2;
    for (const ProtocolKind p :
         {ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3}) {
      for (int d = smoke ? 4 : 3; d <= (smoke ? 4 : 16); ++d) {
        ScenarioConfig cfg;
        cfg.protocol = p;
        cfg.mesh.degree = d;
        add(std::string{toString(p)} + "/degree=" + std::to_string(d), cfg);
      }
    }
  } else if (name == "ctrl_churn") {
    // Hello detection plus a control-plane fault plan, no path failure.
    w.runs = smoke ? 1 : 40;
    w.threads = 2;
    for (const ProtocolKind p :
         {ProtocolKind::LinkState, ProtocolKind::Dual, ProtocolKind::Bgp3}) {
      ScenarioConfig cfg;
      cfg.protocol = p;
      cfg.mesh = MeshSpec{10, 10, 4};
      cfg.hello.enabled = true;
      cfg.injectFailure = false;
      cfg.faultPlan = fault::FaultPlan::parse(
          "110:ctrl-loss:*:0.05;120:flapburst:44-45:10:6;150:crash:55;190:restart:55;"
          "200:partition:0,1,2,10,11,12;240:heal:0,1,2,10,11,12");
      cfg.trafficStart = Time::seconds(100.0);
      cfg.trafficStop = Time::seconds(280.0);
      cfg.endAt = Time::seconds(300.0);
      add(toString(p), cfg);
    }
  } else if (name == "dataplane_flows") {
    // Per-packet work dominates: 32 CBR flows of small packets, one failure.
    w.runs = smoke ? 1 : 4;
    ScenarioConfig cfg;
    cfg.protocol = ProtocolKind::Dbf;
    cfg.mesh = MeshSpec{20, 20, 4};
    cfg.protoCfg.dv.infinityMetric = 64;
    cfg.ttl = 64;
    cfg.flows = smoke ? 2 : 32;
    cfg.packetsPerSecond = 200.0;
    cfg.packetBytes = 64;
    cfg.trafficStart = Time::seconds(60.0);
    cfg.trafficStop = Time::seconds(100.0);
    cfg.failAt = Time::seconds(70.0);
    cfg.endAt = Time::seconds(105.0);
    add("DBF/flows=" + std::to_string(cfg.flows), cfg);
  } else if (name == "mesh100_converge") {
    // The canonical scale scenario, largeMeshConfig on its 100x100 mesh: one
    // replica of about 50 s, so a run is one pass whatever --seconds says.
    // Smoke size is 20x20, which also stands in for the on/off pairs.
    ScenarioConfig cfg = largeMeshConfig();
    if (smoke) cfg.mesh = MeshSpec{20, 20, 4};
    w.pairMesh = MeshSpec{20, 20, 4};
    add("DBF/mesh=" + std::to_string(cfg.mesh.rows) + "x" + std::to_string(cfg.mesh.cols), cfg);
  } else {
    std::string known;
    for (const WorkloadPin& p : kWorkloads) known += std::string{" "} + p.name;
    throw std::invalid_argument("unknown workload '" + name + "'; workloads:" + known);
  }

  for (auto& cell : w.spec.cells) {
    cell.startSeed = (seed - 1) * static_cast<std::uint64_t>(w.runs) + 1;
  }
  if (seed == 1 && !smoke) {
    for (const WorkloadPin& p : kWorkloads) {
      if (name == p.name) {
        w.pin = p.digest;
        w.replicaPin = p.replicaDigest;
      }
    }
  }
  return w;
}

ScenarioConfig replicaConfig(const Workload& w, std::size_t cell, int rep) {
  ScenarioConfig cfg = w.spec.cells[cell].config;
  cfg.seed = w.spec.cells[cell].startSeed + static_cast<std::uint64_t>(rep);
  return cfg;
}

/// FNV-1a over per-cell aggregate digests, in cell order.
std::string workloadDigest(const std::vector<Aggregate>& cells) {
  std::string text;
  for (const Aggregate& a : cells) text += aggregateDigest(a) + "\n";
  return fnv1aHexDigest(text);
}

/// Replicas attempted and those that failed or produced a wrong answer.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void fail(std::uint64_t replicas, const std::string& why) {
    failed += replicas;
    correct = false;
    std::fprintf(stderr, "rcsim_e2e: FAIL: %s\n", why.c_str());
  }
};

// ---------------------------------------------------------------------------
// Executor passes.

struct Pass {
  double wallSec = 0.0;
  double events = 0.0;
  double replicaWallSum = 0.0;
  std::string digest;
  exp::ExperimentResult result;
};

/// One pass of every replica through the executor, retries off so a failing
/// replica is quarantined instead of hidden.
Pass runPass(exp::SweepExecutor& exec, const Workload& w, Tally& tally) {
  exp::JobOptions opts;
  opts.retry.maxAttempts = 1;
  Pass pass;
  const auto t0 = Clock::now();
  pass.result = exec.finish(exec.submit(w.spec, w.runs, opts));
  pass.wallSec = secondsSince(t0);
  pass.events = pass.result.metrics.at("counters").numberAt("sim.events_executed");
  pass.replicaWallSum =
      pass.result.metrics.at("histograms").at("replica.wall_sec").numberAt("sum");

  std::vector<Aggregate> aggs;
  std::uint64_t quarantined = 0;
  for (const auto& cell : pass.result.cells) {
    quarantined += cell.failures.size();
    for (const auto& f : cell.failures) {
      std::fprintf(stderr, "rcsim_e2e: %s seed %llu quarantined: %s\n", w.name.c_str(),
                   static_cast<unsigned long long>(f.seed), f.error.c_str());
    }
    aggs.push_back(cell.agg);
  }
  pass.digest = workloadDigest(aggs);
  tally.attempted += static_cast<std::uint64_t>(w.replicas());
  if (quarantined > 0) tally.fail(quarantined, w.name + ": quarantined replicas");
  return pass;
}

/// Summed Scenario construction time over every replica, without running.
double constructPass(const Workload& w) {
  double total = 0.0;
  for (std::size_t c = 0; c < w.spec.cells.size(); ++c) {
    for (int r = 0; r < w.runs; ++r) {
      const ScenarioConfig cfg = replicaConfig(w, c, r);
      const auto t0 = Clock::now();
      const Scenario scenario{cfg};
      total += secondsSince(t0);
    }
  }
  return total;
}

void checkDigest(const Workload& w, const std::string& got, const std::string& expected,
                 const char* what, Tally& tally) {
  if (got == expected) return;
  tally.fail(static_cast<std::uint64_t>(w.replicas()),
             w.name + ": " + what + " digest " + got + " != " + expected);
}

using Metrics = std::map<std::string, double>;

/// End-to-end metrics, tracing off: construct-only passes first, then
/// executor passes until about `seconds` have elapsed (at least one).
Metrics measureEndToEnd(const Workload& w, double seconds, Tally& tally) {
  // Construction is cheap next to a run, so repeat the construct-only pass
  // (at least 5 times, for about 5% of the run) and report the median.
  std::vector<double> setups;
  const auto setupStart = Clock::now();
  while (setups.size() < 5 ||
         (secondsSince(setupStart) < 0.05 * seconds && setups.size() < 1000)) {
    setups.push_back(constructPass(w));
  }

  exp::SweepExecutor exec{w.threads};
  std::vector<double> walls;
  std::vector<double> eventRates;
  std::vector<double> replicaRates;
  std::string firstDigest;
  const auto start = Clock::now();
  for (;;) {
    const Pass p = runPass(exec, w, tally);
    if (firstDigest.empty()) firstDigest = p.digest;
    checkDigest(w, p.digest, firstDigest, "repeat", tally);
    walls.push_back(p.wallSec);
    eventRates.push_back(p.events / p.wallSec);
    replicaRates.push_back(w.replicas() / p.wallSec);
    // Stop at the pass boundary nearest to `seconds`.
    const double meanPass = secondsSince(start) / static_cast<double>(walls.size());
    if (secondsSince(start) >= seconds - 0.5 * meanPass) break;
  }
  if (!w.pin.empty()) checkDigest(w, firstDigest, w.pin, "pinned", tally);
  std::string passes;
  for (const double s : walls) passes += " " + std::to_string(s);
  std::fprintf(stderr, "rcsim_e2e: %s digest %s, pass wall s:%s\n", w.name.c_str(),
               firstDigest.c_str(), passes.c_str());

  return Metrics{{"wall_s", median(walls)},
                 {"setup_s", median(setups)},
                 {"events_per_s", median(eventRates)},
                 {"replicas_per_s", median(replicaRates)},
                 {"peak_rss_mb", peakRssMb()}};
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as JSON when the run ends.

class SpanLog {
 public:
  /// Open a span now; parent 0 = root. Returns its id.
  int open(std::string name, int parent) {
    spans_.push_back(Span{static_cast<int>(spans_.size()) + 1, parent, std::move(name), nowNs(), 0,
                          JsonValue::makeObject()});
    return spans_.back().id;
  }
  void close(int id) { at(id).endNs = nowNs(); }
  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id - 1)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
  }
  void attr(int id, const std::string& key, JsonValue v) {
    at(id).attrs.object[key] = std::move(v);
  }
  void attr(int id, const std::string& key, double v) { attr(id, key, JsonValue::makeNumber(v)); }

  void write(const std::string& path) const {
    JsonValue spans = JsonValue::makeArray();
    for (const Span& s : spans_) {
      JsonValue o = JsonValue::makeObject();
      o.object["id"] = JsonValue::makeNumber(s.id);
      o.object["parent"] = JsonValue::makeNumber(s.parent);
      o.object["name"] = JsonValue::makeString(s.name);
      o.object["start_ns"] = JsonValue::makeNumber(static_cast<double>(s.startNs));
      o.object["end_ns"] = JsonValue::makeNumber(static_cast<double>(s.endNs));
      o.object["attrs"] = s.attrs;
      spans.array.push_back(std::move(o));
    }
    JsonValue doc = JsonValue::makeObject();
    doc.object["schema"] = JsonValue::makeString("rcsim-e2e-trace-v1");
    doc.object["spans"] = std::move(spans);
    const std::filesystem::path p{path};
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream out{path};
    out << dumpJson(doc);
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct Span {
    int id;
    int parent;
    std::string name;
    std::int64_t startNs;
    std::int64_t endNs;
    JsonValue attrs;
  };

  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  Span& at(int id) { return spans_[static_cast<std::size_t>(id - 1)]; }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Handler time and counts of one replica's routing layer.
struct RoutingTotals {
  std::uint64_t calls = 0;
  std::uint64_t messages = 0;
  std::int64_t ns = 0;
  std::uint64_t spfFull = 0;
  std::uint64_t spfIncremental = 0;
  std::uint64_t spfSkip = 0;

  RoutingTotals& operator+=(const RoutingTotals& o) {
    calls += o.calls;
    messages += o.messages;
    ns += o.ns;
    spfFull += o.spfFull;
    spfIncremental += o.spfIncremental;
    spfSkip += o.spfSkip;
    return *this;
  }
};

/// Times the message and link handlers of a node's routing protocol. The
/// wrapped protocol is built by the same makeProtocol call the Scenario
/// made, before any event ran, so the run is unchanged (the paired digest
/// check enforces it). Work the protocol schedules on its own timers (SPF,
/// periodic and triggered sends, MRAI and outbox flushes) bypasses the
/// decorator. A node the fault plan restarts gets a fresh, untimed protocol.
class TimedProtocol final : public RoutingProtocol {
 public:
  TimedProtocol(Node& node, std::unique_ptr<RoutingProtocol> inner, RoutingTotals& totals)
      : RoutingProtocol{node}, inner_{std::move(inner)}, totals_{totals} {}

  ~TimedProtocol() override {
    if (const auto* ls = dynamic_cast<const LinkState*>(inner_.get())) {
      totals_.spfFull += ls->spfFulls();
      totals_.spfIncremental += ls->spfIncrementals();
      totals_.spfSkip += ls->spfSkips();
    }
  }

  void start() override {
    timed([&] { inner_->start(); });
  }
  void onLinkDown(NodeId neighbor) override {
    timed([&] { inner_->onLinkDown(neighbor); });
  }
  void onLinkUp(NodeId neighbor) override {
    timed([&] { inner_->onLinkUp(neighbor); });
  }
  void onMessage(NodeId from, std::shared_ptr<const ControlPayload> msg) override {
    ++totals_.messages;
    timed([&] { inner_->onMessage(from, std::move(msg)); });
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] TransportCounters transportCounters() const override {
    return inner_->transportCounters();
  }

 private:
  template <typename F>
  void timed(F&& f) {
    const auto t0 = Clock::now();
    f();
    totals_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    ++totals_.calls;
  }

  std::unique_ptr<RoutingProtocol> inner_;
  RoutingTotals& totals_;
};

/// Counts trace events by kind; optionally records a bounded prefix.
class CountingSink final : public obs::TraceSink {
 public:
  static constexpr std::size_t kMaxRecorded = std::size_t{1} << 20;

  explicit CountingSink(std::vector<obs::TraceEvent>* record) : record_{record} {}

  void onTraceEvent(const obs::TraceEvent& ev) override {
    ++counts_[static_cast<std::size_t>(ev.kind)];
    if (record_ != nullptr && record_->size() < kMaxRecorded) record_->push_back(ev);
  }
  [[nodiscard]] std::uint64_t count(obs::TraceKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto c : counts_) n += c;
    return n;
  }

 private:
  std::vector<obs::TraceEvent>* record_;
  std::array<std::uint64_t, obs::kTraceKindCount> counts_{};
};

/// Sums over the traced replicas of one pass.
struct LayerSums {
  double topoS = 0.0, setupS = 0.0, runS = 0.0, summarizeS = 0.0;
  std::vector<double> replicaS;
  RoutingTotals routing;
  std::uint64_t executed = 0, scheduled = 0, cancelled = 0, poolSlots = 0;
  std::array<std::uint64_t, kEventKindCount> kindExecuted{};
  std::uint64_t dataHops = 0, delivered = 0, dropped = 0, sent = 0;
  std::uint64_t controlMsgs = 0, controlBytes = 0, transportRetx = 0, transportResets = 0;
  std::uint64_t hellos = 0, episodes = 0, routeChanges = 0, faultsApplied = 0, traceEvents = 0;
};

/// One replica with the decorator and the counting sink installed, inside a
/// replica span with topo.build / core.setup / core.run / core.summarize
/// children.
RunResult runTraced(const std::string& cell, const ScenarioConfig& cfg, SpanLog& spans,
                    int parent, LayerSums& sums, std::vector<obs::TraceEvent>* record) {
  const int replica = spans.open("replica", parent);
  spans.attr(replica, "cell", JsonValue::makeString(cell));
  spans.attr(replica, "seed", static_cast<double>(cfg.seed));

  const int topo = spans.open("topo.build", replica);
  const Topology mesh = makeRegularMesh(cfg.mesh);
  spans.close(topo);
  spans.attr(topo, "links", static_cast<double>(mesh.edges.size()));

  RoutingTotals routing;  // outlives the scenario: decorators report into it on destruction
  CountingSink sink{record};
  const int setup = spans.open("core.setup", replica);
  auto scenario = std::make_unique<Scenario>(cfg);
  spans.close(setup);
  Network& net = scenario->network();
  for (NodeId id = 0; id < static_cast<NodeId>(net.nodeCount()); ++id) {
    Node& node = net.node(id);
    node.setProtocol(std::make_unique<TimedProtocol>(
        node, makeProtocol(cfg.protocol, node, cfg.protoCfg), routing));
  }
  scenario->attachTraceSink(&sink);

  const int run = spans.open("core.run", replica);
  scenario->run();
  spans.close(run);
  const int summarize = spans.open("core.summarize", replica);
  RunResult result = summarizeRun(*scenario);
  spans.close(summarize);

  const Scheduler& sched = scenario->scheduler();
  sums.executed += sched.executedEvents();
  sums.scheduled += sched.scheduledEvents();
  sums.cancelled += sched.cancelledEvents();
  sums.poolSlots = std::max<std::uint64_t>(sums.poolSlots, sched.poolCapacity());
  for (int k = 0; k < kEventKindCount; ++k) {
    sums.kindExecuted[static_cast<std::size_t>(k)] +=
        sched.kindStats(static_cast<EventKind>(k)).executed;
  }
  scenario.reset();
  spans.close(replica);

  sums.topoS += spans.seconds(topo);
  sums.setupS += spans.seconds(setup);
  sums.runS += spans.seconds(run);
  sums.summarizeS += spans.seconds(summarize);
  sums.replicaS.push_back(spans.seconds(replica));
  sums.routing += routing;
  sums.dataHops += result.data.forwarded;
  sums.delivered += result.data.delivered;
  sums.dropped += result.data.totalDropped();
  sums.sent += result.sent;
  sums.controlMsgs += result.controlMessages;
  sums.controlBytes += result.controlBytes;
  sums.transportRetx += result.transportRetransmissions;
  sums.transportResets += result.transportSessionResets;
  sums.hellos += result.anatomy.helloMessages;
  sums.episodes += result.anatomy.episodes;
  sums.routeChanges += sink.count(obs::TraceKind::RouteChange);
  sums.faultsApplied += sink.count(obs::TraceKind::FaultApply);
  sums.traceEvents += sink.total();

  spans.attr(replica, "digest", JsonValue::makeString(runResultDigest(result)));
  spans.attr(replica, "events_executed", static_cast<double>(result.eventsExecuted));
  spans.attr(replica, "routing_ns", static_cast<double>(routing.ns));
  spans.attr(replica, "routing_calls", static_cast<double>(routing.calls));
  spans.attr(replica, "routing_messages", static_cast<double>(routing.messages));
  spans.attr(replica, "trace_events", static_cast<double>(sink.total()));
  return result;
}

RunResult runPlain(const ScenarioConfig& cfg) {
  Scenario scenario{cfg};
  scenario.run();
  return summarizeRun(scenario);
}

/// Observer cost as a percentage: wall time of one replica with `flag` on
/// over off, in interleaved pairs (alternating which side runs first) for
/// about `budgetSec`, medians of each side.
double overheadPct(ScenarioConfig cfg, bool ScenarioConfig::*flag, double budgetSec,
                   Tally& tally) {
  std::vector<double> on;
  std::vector<double> off;
  const auto start = Clock::now();
  do {
    const bool onFirst = on.size() % 2 == 0;
    for (int side = 0; side < 2; ++side) {
      const bool enable = (side == 0) == onFirst;
      cfg.*flag = enable;
      const auto t0 = Clock::now();
      try {
        (void)runPlain(cfg);
      } catch (const std::exception& e) {
        tally.fail(1, std::string{"overhead pair threw: "} + e.what());
      }
      (enable ? on : off).push_back(secondsSince(t0));
    }
  } while (secondsSince(start) < budgetSec && on.size() < 50);
  tally.attempted += 2 * on.size();
  return (median(on) / median(off) - 1.0) * 100.0;
}

/// Per-event cost of obs::analyzeTrace over a recorded trace, repeated for
/// about `budgetSec`; median.
double analyzeNsPerEvent(const std::vector<obs::TraceEvent>& events, std::size_t nodes,
                         double budgetSec) {
  if (events.empty()) return 0.0;
  // Walk the first originated flow, as the live analyzer walks flow 0.
  obs::ReplayOptions opt{kInvalidNode, kInvalidNode, nodes};
  for (const auto& ev : events) {
    if (ev.kind == obs::TraceKind::Originate) {
      opt.src = ev.a;
      opt.dst = ev.b;
      break;
    }
  }
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < 3 || (secondsSince(start) < budgetSec && ns.size() < 100)) {
    const auto t0 = Clock::now();
    (void)obs::analyzeTrace(events, opt);
    ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(events.size()));
  }
  return median(ns);
}

/// Scheduler dispatch on its own: 65,536 one-shot events scheduled and
/// drained, repeated for about `budgetSec`; median events/s.
double dispatchEventsPerSec(double budgetSec) {
  constexpr int kEvents = 65536;
  std::vector<double> rates;
  const auto start = Clock::now();
  while (rates.size() < 5 || (secondsSince(start) < budgetSec && rates.size() < 200)) {
    Scheduler sched;
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      sched.scheduleAt(Time::microseconds(i % 997), [&fired] { ++fired; });
    }
    sched.run();
    const double sec = secondsSince(t0);
    if (fired != kEvents) throw std::logic_error("scheduler dropped events");
    rates.push_back(kEvents / sec);
  }
  return median(rates);
}

/// Per-layer metrics: every replica serially, untraced and traced in
/// alternating order, so the traced digests can be checked against the
/// untraced ones and the tracing overhead read from interleaved pairs; then
/// the exp layer and the observer on/off pairs.
Metrics measureLayers(const Workload& w, double seconds, std::uint64_t seed,
                      const std::string& outDir, Tally& tally) {
  SpanLog spans;
  const int root = spans.open("workload", 0);
  spans.attr(root, "workload", JsonValue::makeString(w.name));
  spans.attr(root, "seed", static_cast<double>(seed));

  LayerSums sums;
  std::vector<obs::TraceEvent> recorded;  // first traced replica, bounded prefix
  double plainSec = 0.0;
  double tracedSec = 0.0;
  std::vector<Aggregate> aggs;
  std::vector<exp::CellStats> totals;
  int index = 0;
  for (std::size_t c = 0; c < w.spec.cells.size(); ++c) {
    std::vector<RunResult> cell;
    for (int r = 0; r < w.runs; ++r, ++index) {
      const ScenarioConfig cfg = replicaConfig(w, c, r);
      tally.attempted += 2;
      try {
        RunResult plain;
        RunResult traced;
        for (int side = 0; side < 2; ++side) {
          const auto t0 = Clock::now();
          if ((side == 0) == (index % 2 == 0)) {
            plain = runPlain(cfg);
            plainSec += secondsSince(t0);
          } else {
            traced = runTraced(w.spec.cells[c].id, cfg, spans, root, sums,
                               index == 0 ? &recorded : nullptr);
            tracedSec += secondsSince(t0);
          }
        }
        const std::string where = w.spec.cells[c].id + " seed " + std::to_string(cfg.seed);
        const std::string digest = runResultDigest(traced);
        if (digest != runResultDigest(plain)) {
          tally.fail(1, w.name + ": traced digest differs from untraced at " + where);
        }
        if (index == 0 && !w.replicaPin.empty() && digest != w.replicaPin) {
          tally.fail(1, w.name + ": replica digest " + digest + " != pinned " + w.replicaPin);
        }
        if (traced.residual() != 0) {
          tally.fail(1, w.name + ": conservation residual " + std::to_string(traced.residual()) +
                            " at " + where);
        }
        cell.push_back(std::move(traced));
      } catch (const std::exception& e) {
        tally.fail(2, w.name + ": replica threw: " + e.what());
      }
    }
    aggs.push_back(Aggregate::over(cell));
    totals.push_back(exp::CellStats::over(cell));
  }
  spans.close(root);
  const std::string tracedDigest = workloadDigest(aggs);
  spans.attr(root, "digest", JsonValue::makeString(tracedDigest));
  if (!w.pin.empty()) checkDigest(w, tracedDigest, w.pin, "pinned", tally);

  // The exp layer. A sweep makes one executor pass on its workers. A
  // one-worker executor would run the replicas back to back on one thread,
  // as the untraced side above did, so a serial workload takes that side as
  // its pass (its one worker never waits) and writes its results as the
  // artifact; this keeps the 100x100 run from paying for a third replica.
  double poolUtilization = 1.0;
  exp::ExperimentResult result;
  if (w.threads > 1) {
    exp::SweepExecutor exec{w.threads};
    Pass pass = runPass(exec, w, tally);
    checkDigest(w, pass.digest, tracedDigest, "executor vs traced", tally);
    poolUtilization = pass.replicaWallSum / (w.threads * pass.wallSec);
    result = std::move(pass.result);
  } else {
    result.runs = w.runs;
    result.threads = 1;
    result.wallSeconds = plainSec;
    for (std::size_t c = 0; c < aggs.size(); ++c) {
      exp::CellResult& cell = result.cells.emplace_back();
      cell.agg = aggs[c];
      cell.totals = totals[c];
    }
  }
  std::filesystem::create_directories(outDir);
  const auto writeStart = Clock::now();
  exp::writeArtifact(w.spec, result, outDir + "/artifact-" + w.name + ".json");
  const double artifactWriteS = secondsSince(writeStart);

  const double budget = 0.1 * seconds;
  ScenarioConfig probe = replicaConfig(w, 0, 0);
  if (w.pairMesh) probe.mesh = *w.pairMesh;
  const double anatomyPct = overheadPct(probe, &ScenarioConfig::anatomy, budget, tally);
  const double invariantsPct = overheadPct(probe, &ScenarioConfig::checkInvariants, budget, tally);
  const MeshSpec& mesh = w.spec.cells[0].config.mesh;
  const auto nodes = static_cast<std::size_t>(mesh.rows) * mesh.cols;
  const double analyzeNs = analyzeNsPerEvent(recorded, nodes, 0.01 * seconds);
  const double dispatch = dispatchEventsPerSec(0.01 * seconds);

  const std::string tracePath =
      outDir + "/trace-" + w.name + "-seed" + std::to_string(seed) + ".json";
  spans.write(tracePath);
  std::fprintf(stderr, "rcsim_e2e: %s spans written to %s\n", w.name.c_str(), tracePath.c_str());

  const double handlerS = static_cast<double>(sums.routing.ns) * 1e-9;
  Metrics m{
      {"core.setup_s", sums.setupS},
      {"core.run_s", sums.runS},
      {"core.summarize_s", sums.summarizeS},
      {"core.replica_s.p50", quantile(sums.replicaS, 0.5)},
      {"core.replica_s.p90", quantile(sums.replicaS, 0.9)},
      {"core.replicas", static_cast<double>(sums.replicaS.size())},
      {"topo.build_s", sums.topoS},
      {"routing.handler_s", handlerS},
      {"routing.share", ratio(handlerS, sums.runS)},
      {"routing.calls", static_cast<double>(sums.routing.calls)},
      {"routing.messages", static_cast<double>(sums.routing.messages)},
      {"routing.ns_per_call", ratio(static_cast<double>(sums.routing.ns),
                                    static_cast<double>(sums.routing.calls))},
      {"routing.ls.spf_full", static_cast<double>(sums.routing.spfFull)},
      {"routing.ls.spf_incremental", static_cast<double>(sums.routing.spfIncremental)},
      {"routing.ls.spf_skip", static_cast<double>(sums.routing.spfSkip)},
      {"sim.events_executed", static_cast<double>(sums.executed)},
      {"sim.events_scheduled", static_cast<double>(sums.scheduled)},
      {"sim.events_cancelled", static_cast<double>(sums.cancelled)},
      {"sim.cancel_ratio",
       ratio(static_cast<double>(sums.cancelled), static_cast<double>(sums.scheduled))},
      {"sim.pool_slots", static_cast<double>(sums.poolSlots)},
      {"sim.outside_routing_s", sums.runS - handlerS},
      {"sim.dispatch_events_per_s", dispatch},
      {"net.data_hops", static_cast<double>(sums.dataHops)},
      {"net.delivered", static_cast<double>(sums.delivered)},
      {"net.dropped", static_cast<double>(sums.dropped)},
      {"net.delivery_ratio",
       ratio(static_cast<double>(sums.delivered), static_cast<double>(sums.sent))},
      {"net.control_msgs", static_cast<double>(sums.controlMsgs)},
      {"net.control_bytes", static_cast<double>(sums.controlBytes)},
      {"net.route_changes", static_cast<double>(sums.routeChanges)},
      {"net.transport_retx", static_cast<double>(sums.transportRetx)},
      {"net.transport_resets", static_cast<double>(sums.transportResets)},
      {"net.hellos", static_cast<double>(sums.hellos)},
      {"traffic.sent", static_cast<double>(sums.sent)},
      {"obs.trace_events", static_cast<double>(sums.traceEvents)},
      {"obs.episodes", static_cast<double>(sums.episodes)},
      {"obs.analyze_ns_per_event", analyzeNs},
      {"obs.anatomy_overhead_pct", anatomyPct},
      {"fault.invariants_overhead_pct", invariantsPct},
      {"fault.applied", static_cast<double>(sums.faultsApplied)},
      {"exp.pool_utilization", poolUtilization},
      {"exp.artifact_write_s", artifactWriteS},
      {"bench.trace_overhead_pct", (ratio(tracedSec, plainSec) - 1.0) * 100.0},
  };
  for (int k = 0; k < kEventKindCount; ++k) {
    m[std::string{"sim.kind."} + toString(static_cast<EventKind>(k)) + ".executed"] =
        static_cast<double>(sums.kindExecuted[static_cast<std::size_t>(k)]);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output.

template <std::size_t N>
JsonValue resultLine(const Tally& tally, const Metrics& values, const MetricDef (&defs)[N]) {
  JsonValue metrics = JsonValue::makeObject();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) throw std::logic_error(std::string{"metric not measured: "} + d.name);
    JsonValue entry = JsonValue::makeObject();
    entry.object["value"] = JsonValue::makeNumber(it->second);
    entry.object["unit"] = JsonValue::makeString(d.unit);
    metrics.object[d.name] = std::move(entry);
  }
  JsonValue line = JsonValue::makeObject();
  line.object["correct"] = JsonValue::makeBool(tally.correct);
  line.object["attempted"] = JsonValue::makeNumber(static_cast<double>(tally.attempted));
  line.object["failed"] = JsonValue::makeNumber(static_cast<double>(tally.failed));
  line.object["metrics"] = std::move(metrics);
  return line;
}

/// "name unit" of every metric in a BENCHMARK.json metric list, sorted.
std::vector<std::string> listedMetrics(const JsonValue& metricList) {
  std::vector<std::string> out;
  for (const auto& m : metricList.array) {
    out.push_back(m.stringAt("name") + " " + m.stringAt("unit"));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every workload at smoke size, untraced and traced. Checks that each
/// printed line parses, carries exactly the metric names and units
/// `expectPath` (BENCHMARK.json) lists, and that traced and untraced
/// digests match.
int smoke(const std::string& expectPath, const std::string& outDir) {
  std::ifstream in{expectPath};
  if (!in) throw std::runtime_error("cannot read " + expectPath);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue expect = parseJson(ss.str());
  bool ok = true;
  std::vector<std::string> names;
  for (const WorkloadPin& p : kWorkloads) {
    const char* name = p.name;
    names.emplace_back(name);
    const Workload w = makeWorkload(name, 1, /*smoke=*/true);
    for (const bool traced : {false, true}) {
      Tally tally;
      const Metrics m =
          traced ? measureLayers(w, 0.0, 1, outDir, tally) : measureEndToEnd(w, 0.0, tally);
      const std::string text = traced ? dumpJsonLine(resultLine(tally, m, kPerLayer))
                                      : dumpJsonLine(resultLine(tally, m, kEndToEnd));
      std::printf("%s trace=%d %s\n", name, traced ? 1 : 0, text.c_str());
      const JsonValue parsed = parseJson(text);
      std::vector<std::string> printed;
      for (const auto& [metric, value] : parsed.at("metrics").object) {
        printed.push_back(metric + " " + value.stringAt("unit"));
      }
      if (!tally.correct || !parsed.at("correct").boolean) ok = false;
      if (printed != listedMetrics(expect.at(traced ? "per_layer" : "end_to_end"))) {
        std::fprintf(stderr, "rcsim_e2e: %s metrics differ from %s\n", name,
                     expectPath.c_str());
        ok = false;
      }
    }
  }
  std::vector<std::string> listed;
  for (const auto& w : expect.at("workloads").array) listed.push_back(w.stringAt("name"));
  if (listed != names) {
    std::fprintf(stderr, "rcsim_e2e: workload names differ from %s\n", expectPath.c_str());
    ok = false;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: rcsim_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--out-dir DIR]\n"
               "       rcsim_e2e --smoke --expect BENCHMARK.json [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smokeMode = false;
  std::string expectPath;
  std::string outDir = ".bench_build/e2e-out";
  Workload w;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      std::string value;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg.resize(eq);
      }
      auto next = [&]() -> const std::string& {
        if (eq == std::string::npos) {
          if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
          value = argv[++i];
        }
        return value;
      };
      if (arg == "--smoke") {
        smokeMode = true;
      } else if (arg == "--expect") {
        expectPath = next();
      } else if (arg == "--workload") {
        workload = next();
      } else if (arg == "--seed") {
        seed = cli::parseSeed(next(), "--seed");
        if (seed == 0) throw std::invalid_argument("--seed must be at least 1");
      } else if (arg == "--seconds") {
        seconds = cli::parsePositiveInt(next(), "--seconds");
      } else if (arg == "--trace") {
        const std::string& v = next();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace wants 0 or 1");
        trace = v == "1";
      } else if (arg == "--out-dir") {
        outDir = next();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (smokeMode ? expectPath.empty() : workload.empty()) return usage();
    if (!smokeMode) w = makeWorkload(workload, seed, /*smoke=*/false);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "rcsim_e2e: %s\n", e.what());
    return usage();
  }

  try {
    if (smokeMode) return smoke(expectPath, outDir);
    Tally tally;
    const JsonValue line =
        trace ? resultLine(tally, measureLayers(w, seconds, seed, outDir, tally), kPerLayer)
              : resultLine(tally, measureEndToEnd(w, seconds, tally), kEndToEnd);
    std::printf("%s\n", dumpJsonLine(line).c_str());
    return tally.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcsim_e2e: %s\n", e.what());
    return 1;
  }
}
