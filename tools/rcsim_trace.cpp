// rcsim-trace — structured trace capture, forensics and convergence-anatomy
// queries, in the spirit of the paper's §2 methodology ("studying the
// forwarding and routing trace files, thus we can identify the causes of
// routing loops in each circumstance").
//
// Scenario modes (key=value options select the scenario):
//   rcsim-trace [key=value ...] [--from=SEC] [--to=SEC] [--kinds=...]
//       Live: run one scenario and print a human-readable event log.
//   rcsim-trace [key=value ...] --record=FILE
//       Run one scenario with full-fidelity typed tracing into an
//       rcsim-trace-v1 JSONL file (CRC-framed, torn-tail safe).
//   rcsim-trace [key=value ...] --selftest
//       Run a scenario with a recorder attached and require the live stats
//       walker and online analyzer to agree with the offline replay of the
//       recorded stream (replayDivergence). Exit 0 on agreement, 1 on
//       divergence.
//   rcsim-trace [key=value ...] --histo=KIND
//       Run one scenario and print the scheduler's per-event-kind counters
//       and scheduling-delay histograms (KIND = all | generic | link |
//       protocol | transport | traffic | fault | detector).
// File modes (no simulation, just a recorded trace or an artifact):
//   rcsim-trace --trace=FILE --episodes [--json]
//       Per-episode phase breakdown, whole-run anatomy summary and top
//       control talkers. --json prints the summary as the exact object the
//       artifact's per-cell `convergence` block carries (same serializer).
//   rcsim-trace --trace=FILE --timeline [--from=SEC] [--to=SEC]
//       Kind counts, then inside the window: triggers, adjacency changes,
//       MRAI/BGP pacing, episodes and transient forwarding paths; then
//       every loop / black-hole window of the trace.
//   rcsim-trace --trace=FILE --flows
//       Per-flow data-plane fates (sent / delivered / drops by cause /
//       delay / hops) keyed by the Originate events in the trace.
//   rcsim-trace --artifact=FILE
//       The stored convergence rollup and digest of each artifact cell.
//
// Live-mode events (tab-separated): time  kind  detail
//   rt    <node> dst=<d> <old> -> <new>        FIB change
//   fwd   <node> -> <next>  pkt=<id> ttl=<n>   data-plane forwarding
//   drop  <node> pkt=<id> reason=<r>           data packet drop
//   del   <node> pkt=<id> delay=<s> hops=<n>   delivery at the receiver
//   fail  link up/down from the failure detector
//   path  sender->receiver forwarding path snapshots (loops flagged)
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/options.hpp"
#include "core/scenario.hpp"
#include "exp/journal.hpp"
#include "obs/anatomy.hpp"
#include "obs/trace_io.hpp"

namespace {

using namespace rcsim;

/// DropReason enumerator count (net/types.hpp declares 7, Corrupted last).
inline constexpr int kDropReasonCount = static_cast<int>(DropReason::Corrupted) + 1;

void printUsage() {
  std::printf(
      "usage: rcsim-trace [key=value ...] [--from=SEC] [--to=SEC]"
      " [--kinds=rt,fwd,drop,del,fail,path]\n"
      "       rcsim-trace [key=value ...] --record=FILE\n"
      "       rcsim-trace [key=value ...] --selftest\n"
      "       rcsim-trace [key=value ...] --histo=KIND\n"
      "       rcsim-trace --trace=FILE --episodes [--json]\n"
      "       rcsim-trace --trace=FILE --timeline [--from=SEC] [--to=SEC]\n"
      "       rcsim-trace --trace=FILE --flows\n"
      "       rcsim-trace --artifact=FILE\n"
      "  KIND = all | generic | link | protocol | transport | traffic | fault | detector\n");
}

/// Hops of a Deliver event: its `z` is the hop record's length (nodes
/// visited), one more than the links crossed; 0 without a record.
long long deliverHops(const obs::TraceEvent& ev) { return ev.z > 0 ? ev.z - 1 : 0; }

obs::TraceFile loadTrace(const std::string& path) {
  obs::TraceFile file = obs::readTraceFile(path);
  if (file.corrupt > 0) {
    std::fprintf(stderr, "warning: skipped %zu corrupt line(s)\n", file.corrupt);
  }
  return file;
}

void printTraceHeader(const std::string& path, const obs::TraceFile& file) {
  std::printf("trace\t%s\tevents=%zu corrupt=%zu digest=%s\n", path.c_str(), file.events.size(),
              file.corrupt, obs::traceDigest(file.events).c_str());
}

void printPathEvent(const obs::ReplayPathEvent& e) {
  std::printf("%12.6f\tpath\t%s", e.t.toSeconds(),
              e.loop ? "LOOP " : (e.blackhole ? "BLACKHOLE " : ""));
  for (std::size_t i = 0; i < e.path.size(); ++i) std::printf("%s%d", i ? "->" : "", e.path[i]);
  std::printf("\n");
}

void printWindows(const char* label, const std::vector<obs::ReplayWindow>& ws) {
  for (const auto& w : ws) {
    if (w.openAtEnd) {
      std::printf("window\t%s\t%.6f -> (open at end of trace)\n", label, w.begin.toSeconds());
    } else {
      std::printf("window\t%s\t%.6f -> %.6f (%.6f s)\n", label, w.begin.toSeconds(),
                  w.end.toSeconds(), w.seconds());
    }
  }
}

void printSummary(const obs::AnatomySummary& s) {
  std::printf("summary\tepisodes=%" PRIu64 " triggers=%" PRIu64 " detected=%" PRIu64
              " detection_total=%.6f converged=%" PRIu64 " convergence_total=%.6f fib_churn=%" PRIu64
              "\n",
              s.episodes, s.triggers, s.detectedEpisodes, s.detectionSecTotal, s.convergedEpisodes,
              s.convergenceSecTotal, s.fibChurn);
  std::printf("summary\tloops=%" PRIu64 "/%.6f blackholes=%" PRIu64 "/%.6f\n", s.loopWindows,
              s.loopSeconds, s.blackholeWindows, s.blackholeSeconds);
  std::printf("summary\tdrops loop=%" PRIu64 " blackhole=%" PRIu64 " ttl=%" PRIu64
              " queue=%" PRIu64 " other=%" PRIu64 " delivered=%" PRIu64 "\n",
              s.dropsLoop, s.dropsBlackhole, s.dropsTtl, s.dropsQueue, s.dropsOther, s.delivered);
  std::printf("summary\tcontrol msgs=%" PRIu64 " bytes=%" PRIu64 " hello msgs=%" PRIu64
              " bytes=%" PRIu64 " dv trig=%" PRIu64 " periodic=%" PRIu64 " mrai armed=%" PRIu64
              " fired=%" PRIu64 "\n",
              s.controlMessages, s.controlBytes, s.helloMessages, s.helloBytes, s.dvTriggered,
              s.dvPeriodic, s.mraiArmed, s.mraiFired);
}

int runEpisodes(const std::string& path, bool json) {
  const obs::TraceFile file = loadTrace(path);
  const obs::AnatomyReport report =
      obs::analyzeTrace(file.events, obs::replayOptionsFromMeta(file.meta));
  const obs::AnatomySummary summary = report.summary();
  if (json) {
    std::printf("%s\n", dumpJson(exp::anatomySummaryToJson(summary)).c_str());
    return 0;
  }

  printTraceHeader(path, file);
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const auto& ep = report.episodes[i];
    std::printf("episode\t%zu\tt=%.6f trigger=%s x%d detect=%.6f converge=%.6f routes=%" PRIu64
                " loops=%d/%.6f%s blackholes=%d/%.6f%s drops loop=%" PRIu64 " blackhole=%" PRIu64
                " ttl=%" PRIu64 " queue=%" PRIu64 " other=%" PRIu64 " delivered=%" PRIu64
                " control=%" PRIu64 "/%" PRIu64 " mrai=%" PRIu64 " dv-trig=%" PRIu64 "\n",
                i + 1, ep.start.toSeconds(), toString(ep.trigger), ep.triggerCount,
                ep.detectionSec(), ep.convergenceSec(), ep.routeChanges, ep.loopWindows,
                ep.loopSeconds, ep.loopOpenAtEnd ? "+open" : "", ep.blackholeWindows,
                ep.blackholeSeconds, ep.blackholeOpenAtEnd ? "+open" : "", ep.dropsLoop,
                ep.dropsBlackhole, ep.dropsTtl, ep.dropsQueue, ep.dropsOther, ep.delivered,
                ep.controlMessages, ep.controlBytes, ep.mraiDeferred, ep.dvTriggered);
  }
  printSummary(summary);

  // Top control-plane talkers (messages, then bytes as tie-break) so a
  // chatty node stands out without dumping every row of a large topology.
  const auto& msgs = report.perNodeControlMessages;
  const auto& bytes = report.perNodeControlBytes;
  std::vector<std::size_t> nodes(msgs.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) nodes[n] = n;
  std::stable_sort(nodes.begin(), nodes.end(), [&](std::size_t l, std::size_t r) {
    return msgs[l] != msgs[r] ? msgs[l] > msgs[r] : bytes[l] > bytes[r];
  });
  for (std::size_t i = 0; i < std::min<std::size_t>(5, nodes.size()); ++i) {
    const std::size_t n = nodes[i];
    if (msgs[n] == 0) break;
    std::printf("talker\tnode=%zu msgs=%" PRIu64 " bytes=%" PRIu64 "\n", n, msgs[n], bytes[n]);
  }
  return 0;
}

double secOrNeg(Time t, Time start) {
  return t == Time::infinity() ? -1.0 : (t - start).toSeconds();
}

void printTimelineEvent(const obs::TraceEvent& ev) {
  const double t = ev.t.toSeconds();
  switch (ev.kind) {
    case obs::TraceKind::LinkDown:
      std::printf("%12.6f\ttrigger\tlink (%d,%d) failed\n", t, ev.a, ev.b);
      break;
    case obs::TraceKind::LinkUp:
      std::printf("%12.6f\ttrigger\tlink (%d,%d) recovered\n", t, ev.a, ev.b);
      break;
    case obs::TraceKind::FaultApply:
      std::printf("%12.6f\ttrigger\tfault apply target=(%d,%d) kind=%lld\n", t, ev.a, ev.b,
                  static_cast<long long>(ev.x));
      break;
    case obs::TraceKind::AdjDown:
      std::printf("%12.6f\tdetect\tnode=%d lost neighbor=%d%s\n", t, ev.a, ev.b,
                  ev.x != 0 ? " (false positive)" : "");
      break;
    case obs::TraceKind::AdjUp:
      std::printf("%12.6f\tdetect\tnode=%d regained neighbor=%d\n", t, ev.a, ev.b);
      break;
    case obs::TraceKind::MraiArm: {
      const std::string dst = ev.z >= 0 ? " dst=" + std::to_string(ev.z) : "";
      std::printf("%12.6f\tmrai\tnode=%d peer=%d armed for %.3f s%s\n", t, ev.a, ev.b,
                  static_cast<double>(ev.x) * 1e-9, dst.c_str());
      break;
    }
    case obs::TraceKind::MraiFire:
      std::printf("%12.6f\tmrai\tnode=%d peer=%d fired, pending=%lld\n", t, ev.a, ev.b,
                  static_cast<long long>(ev.x));
      break;
    case obs::TraceKind::BgpAdvert:
      std::printf("%12.6f\tbgp\tnode=%d -> peer=%d advert dst=%lld pathlen=%lld\n", t, ev.a, ev.b,
                  static_cast<long long>(ev.x), static_cast<long long>(ev.y));
      break;
    case obs::TraceKind::BgpWithdraw:
      std::printf("%12.6f\tbgp\tnode=%d -> peer=%d withdraw dst=%lld\n", t, ev.a, ev.b,
                  static_cast<long long>(ev.x));
      break;
    default: break;
  }
}

int runTimeline(const std::string& path, Time from, Time to) {
  const obs::TraceFile file = loadTrace(path);
  const obs::AnatomyReport report =
      obs::analyzeTrace(file.events, obs::replayOptionsFromMeta(file.meta));
  const auto inWindow = [&](Time t) { return t >= from && t <= to; };

  printTraceHeader(path, file);
  for (int k = 0; k < obs::kTraceKindCount; ++k) {
    const std::uint64_t n = report.kindCounts[static_cast<std::size_t>(k)];
    if (n == 0) continue;
    std::printf("count\t%s\t%llu\n", toString(static_cast<obs::TraceKind>(k)),
                static_cast<unsigned long long>(n));
  }
  for (const auto& ev : file.events) {
    if (inWindow(ev.t)) printTimelineEvent(ev);
  }
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const auto& ep = report.episodes[i];
    if (!inWindow(ep.start)) continue;
    std::printf("%12.6f\tepisode\t#%zu %s x%d detect+%.6f first-route+%.6f last-route+%.6f\n",
                ep.start.toSeconds(), i + 1, toString(ep.trigger), ep.triggerCount,
                ep.detectionSec(), secOrNeg(ep.firstRouteChangeAt, ep.start),
                secOrNeg(ep.lastRouteChangeAt, ep.start));
  }
  for (const auto& e : report.pathEvents) {
    if (inWindow(e.t)) printPathEvent(e);
  }
  printWindows("loop", report.loopWindows);
  printWindows("blackhole", report.blackholeWindows);
  return 0;
}

int runFlows(const std::string& path) {
  const obs::TraceFile file = loadTrace(path);
  struct FlowStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::array<std::uint64_t, kDropReasonCount> drops{};
    double delaySum = 0.0;
    double delayMax = 0.0;
    std::uint64_t hops = 0;
  };
  // Originate carries (src, dst, pktid); Deliver/Drop carry only the pktid,
  // so the flow key is recovered through this map. Control packets never
  // emit Originate, which keeps the report data-plane only.
  std::map<std::pair<NodeId, NodeId>, FlowStats> flows;
  std::map<std::int64_t, std::pair<NodeId, NodeId>> pktFlow;
  for (const auto& ev : file.events) {
    if (ev.kind == obs::TraceKind::Originate) {
      const auto key = std::make_pair(ev.a, ev.b);
      pktFlow[ev.x] = key;
      ++flows[key].sent;
      continue;
    }
    // Control drops have no flow (z flags the plane).
    const bool fate = ev.kind == obs::TraceKind::Deliver ||
                      (ev.kind == obs::TraceKind::Drop && ev.z == 1);
    const auto it = fate ? pktFlow.find(ev.x) : pktFlow.end();
    if (it == pktFlow.end()) continue;
    FlowStats& fs = flows[it->second];
    pktFlow.erase(it);
    if (ev.kind == obs::TraceKind::Drop) {
      if (ev.y >= 0 && ev.y < kDropReasonCount) ++fs.drops[static_cast<std::size_t>(ev.y)];
      continue;
    }
    ++fs.delivered;
    const double delay = (ev.t - Time::nanoseconds(ev.y)).toSeconds();
    fs.delaySum += delay;
    fs.delayMax = std::max(fs.delayMax, delay);
    fs.hops += static_cast<std::uint64_t>(deliverHops(ev));
  }
  std::printf("trace\t%s\tflows=%zu\n", path.c_str(), flows.size());
  for (const auto& [key, fs] : flows) {
    std::printf("flow\t%d->%d\tsent=%" PRIu64 " delivered=%" PRIu64, key.first, key.second,
                fs.sent, fs.delivered);
    for (int r = 0; r < kDropReasonCount; ++r) {
      if (fs.drops[static_cast<std::size_t>(r)] == 0) continue;
      std::printf(" drop[%s]=%" PRIu64, toString(static_cast<DropReason>(r)),
                  fs.drops[static_cast<std::size_t>(r)]);
    }
    if (fs.delivered > 0) {
      std::printf(" mean_delay=%.6f max_delay=%.6f mean_hops=%.2f",
                  fs.delaySum / static_cast<double>(fs.delivered), fs.delayMax,
                  static_cast<double>(fs.hops) / static_cast<double>(fs.delivered));
    }
    std::printf("\n");
  }
  return 0;
}

int runArtifact(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue doc = parseJson(text.str());
  std::printf("artifact\t%s\texperiment=%s cells=%zu\n", path.c_str(),
              doc.stringAt("experiment").c_str(), doc.at("cells").array.size());
  for (const auto& cell : doc.at("cells").array) {
    if (!cell.has("convergence")) {
      std::printf("cell\t%s\t(no convergence block)\n", cell.stringAt("id").c_str());
      continue;
    }
    std::printf("cell\t%s\tdigest=%s\n", cell.stringAt("id").c_str(),
                cell.stringAt("convergence_digest").c_str());
    printSummary(exp::anatomySummaryFromJson(cell.at("convergence")));
  }
  return 0;
}

int runHisto(const ScenarioConfig& cfg, const std::string& kindArg) {
  int wanted = -1;  // -1 = all
  if (kindArg != "all") {
    for (int k = 0; k < kEventKindCount; ++k) {
      if (kindArg == toString(static_cast<EventKind>(k))) wanted = k;
    }
    if (wanted < 0) throw std::runtime_error("unknown event kind '" + kindArg + "'");
  }

  Scenario sc{cfg};
  sc.run();
  const auto& sched = sc.network().scheduler();
  for (int k = 0; k < kEventKindCount; ++k) {
    if (wanted >= 0 && k != wanted) continue;
    const auto kind = static_cast<EventKind>(k);
    const auto& ks = sched.kindStats(kind);
    if (wanted < 0 && ks.scheduled == 0) continue;
    std::printf("histo\t%s\tscheduled=%" PRIu64 " executed=%" PRIu64 "\n", toString(kind),
                ks.scheduled, ks.executed);
    for (int b = 0; b < Scheduler::kDelayBuckets; ++b) {
      const std::uint64_t count = ks.delayHisto[static_cast<std::size_t>(b)];
      if (count == 0) continue;
      // Bucket 0 is a zero scheduling delay; bucket b >= 1 covers
      // [2^(b-1), 2^b) nanoseconds of sim time (Scheduler::delayBucket).
      if (b == 0) {
        std::printf("hbin\t%s\t0ns\t%" PRIu64 "\n", toString(kind), count);
      } else {
        std::printf("hbin\t%s\t[2^%d,2^%d)ns\t%" PRIu64 "\n", toString(kind), b - 1, b, count);
      }
    }
  }
  return 0;
}

int runSelftest(const ScenarioConfig& cfg) {
  Scenario sc{cfg};
  obs::MemoryTraceSink sink;
  // Attached behind the stats collector and the online analyzer, so the
  // recorded stream is exactly the one they saw.
  sc.attachTraceSink(&sink);
  sc.run();
  const std::string field = replayDivergence(sc, sink.events());
  if (!field.empty()) {
    std::fprintf(stderr, "selftest: FAIL — %s diverges from the offline replay\n",
                 field.c_str());
    return 1;
  }
  std::printf("selftest: OK — %zu path events, %zu trace events, digest=%s\n",
              sc.stats().pathWalker().events().size(), sink.events().size(),
              obs::traceDigest(sink.events()).c_str());
  return 0;
}

int runRecord(const ScenarioConfig& cfg, const std::string& path) {
  Scenario sc{cfg};
  const obs::ReplayOptions opt = sc.replayOptions();
  JsonValue meta = JsonValue::makeObject();
  meta.object["src"] = JsonValue::makeNumber(opt.src);
  meta.object["dst"] = JsonValue::makeNumber(opt.dst);
  meta.object["nodes"] = JsonValue::makeNumber(static_cast<double>(opt.nodeCount));
  meta.object["seed"] = JsonValue::makeNumber(static_cast<double>(cfg.seed));
  obs::FileTraceSink sink{path, meta};
  // The recorder sees the same stream as the online analyzer, so
  // `--trace=FILE --episodes` reproduces the analyzer's numbers from the
  // same events.
  sc.attachTraceSink(&sink);
  sc.run();
  sc.attachTraceSink(nullptr);
  sink.close();
  std::printf("recorded %llu events to %s\n",
              static_cast<unsigned long long>(sink.eventsWritten()), path.c_str());
  return 0;
}

/// Live mode's printer: one sink on the scenario's tracer, printing the
/// selected channels inside [from, to]. It asks only for the kinds it
/// prints, beside the stats and anatomy sinks already attached.
class LivePrinter final : public obs::TraceSink {
 public:
  LivePrinter(Time from, Time to, const std::set<std::string>& channels)
      : from_{from}, to_{to} {
    using obs::TraceKind;
    if (channels.count("rt") > 0) kinds_ |= obs::kindBit(TraceKind::RouteChange);
    if (channels.count("fwd") > 0) kinds_ |= obs::kindBit(TraceKind::Forward);
    if (channels.count("drop") > 0) kinds_ |= obs::kindBit(TraceKind::Drop);
    if (channels.count("del") > 0) kinds_ |= obs::kindBit(TraceKind::Deliver);
    if (channels.count("fail") > 0) {
      kinds_ |= obs::kindBit(TraceKind::LinkDown) | obs::kindBit(TraceKind::LinkUp) |
                obs::kindBit(TraceKind::AdjDown) | obs::kindBit(TraceKind::AdjUp);
    }
  }

  [[nodiscard]] std::uint32_t kinds() const override { return kinds_; }

  void onTraceEvent(const obs::TraceEvent& ev) override {
    if ((kinds_ & obs::kindBit(ev.kind)) == 0 || ev.t < from_ || ev.t > to_) return;
    const double t = ev.t.toSeconds();
    switch (ev.kind) {
      case obs::TraceKind::RouteChange:
        std::printf("%12.6f\trt\tnode=%d dst=%lld %lld -> %lld\n", t, ev.a,
                    static_cast<long long>(ev.x), static_cast<long long>(ev.y),
                    static_cast<long long>(ev.z));
        break;
      case obs::TraceKind::Forward:
        std::printf("%12.6f\tfwd\t%d -> %d  pkt=%llu ttl=%lld\n", t, ev.a, ev.b,
                    static_cast<unsigned long long>(ev.x), static_cast<long long>(ev.y));
        break;
      case obs::TraceKind::Drop:
        if (ev.z != 1) break;  // data packets only
        std::printf("%12.6f\tdrop\tnode=%d pkt=%llu reason=%s\n", t, ev.a,
                    static_cast<unsigned long long>(ev.x),
                    toString(static_cast<DropReason>(ev.y)));
        break;
      case obs::TraceKind::Deliver:
        std::printf("%12.6f\tdel\tnode=%d pkt=%llu delay=%.6f hops=%lld\n", t, ev.a,
                    static_cast<unsigned long long>(ev.x),
                    (ev.t - Time::nanoseconds(ev.y)).toSeconds(), deliverHops(ev));
        break;
      default:  // link and adjacency up/down
        std::printf("%12.6f\tfail\tlink (%d,%d) %s\n", t, ev.a, ev.b,
                    ev.kind == obs::TraceKind::LinkUp ? "recovered" : "failed");
        break;
    }
  }

 private:
  Time from_, to_;
  std::uint32_t kinds_ = 0;
};

int runLive(const ScenarioConfig& cfg, Time from, Time to, const std::set<std::string>& kinds) {
  Scenario sc{cfg};
  LivePrinter printer{from, to, kinds};
  sc.attachTraceSink(&printer);
  sc.run();
  if (kinds.count("path") > 0) {
    for (const auto& e : sc.stats().pathWalker().events()) {
      if (e.t >= from && e.t <= to) printPathEvent(e);
    }
  }
  return 0;
}

/// The path after `--flag=`, which must not be empty.
std::string pathArg(const std::string& arg, std::size_t prefix, const char* flag) {
  std::string path = arg.substr(prefix);
  if (path.empty()) throw std::runtime_error(std::string{flag} + " needs a file path");
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcsim;

  ScenarioConfig cfg;
  std::optional<double> fromSec;
  std::optional<double> toSec;
  std::set<std::string> kinds{"rt", "fwd", "drop", "del", "fail", "path"};
  std::string recordPath;
  std::string tracePath;
  std::string artifactPath;
  std::string histoKind;
  bool selftest = false;
  bool episodes = false;
  bool timeline = false;
  bool flows = false;
  bool json = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") {
        printUsage();
        return 0;
      }
      if (arg.rfind("--from=", 0) == 0) {
        fromSec = cli::parseFiniteDouble(arg.substr(7), "--from");
      } else if (arg.rfind("--to=", 0) == 0) {
        toSec = cli::parseFiniteDouble(arg.substr(5), "--to");
      } else if (arg.rfind("--kinds=", 0) == 0) {
        kinds.clear();
        std::stringstream list{arg.substr(8)};
        for (std::string k; std::getline(list, k, ',');) kinds.insert(k);
      } else if (arg.rfind("--record=", 0) == 0) {
        recordPath = pathArg(arg, 9, "--record");
      } else if (arg == "--selftest") {
        selftest = true;
      } else if (arg.rfind("--histo=", 0) == 0) {
        histoKind = arg.substr(8);
        if (histoKind.empty()) throw std::runtime_error("--histo needs an event kind");
      } else if (arg.rfind("--trace=", 0) == 0) {
        tracePath = pathArg(arg, 8, "--trace");
      } else if (arg.rfind("--artifact=", 0) == 0) {
        artifactPath = pathArg(arg, 11, "--artifact");
      } else if (arg == "--episodes") {
        episodes = true;
      } else if (arg == "--timeline") {
        timeline = true;
      } else if (arg == "--flows") {
        flows = true;
      } else if (arg == "--json") {
        json = true;
      } else {
        applyOptionString(cfg, arg);
      }
    }

    // A file's timeline defaults to the whole trace; a live log, which
    // prints every hop, to the minute around the default failure.
    const bool file = !tracePath.empty();
    const Time from = Time::seconds(fromSec.value_or(file ? 0.0 : 395.0));
    const Time to = Time::seconds(toSec.value_or(file ? 1e9 : 460.0));
    if (file) {
      if (timeline) return runTimeline(tracePath, from, to);
      if (flows) return runFlows(tracePath);
      if (episodes) return runEpisodes(tracePath, json);
      throw std::runtime_error("--trace needs one of --episodes, --timeline, --flows");
    }
    if (!artifactPath.empty()) return runArtifact(artifactPath);
    if (!histoKind.empty()) return runHisto(cfg, histoKind);
    if (selftest) return runSelftest(cfg);
    if (!recordPath.empty()) return runRecord(cfg, recordPath);
    return runLive(cfg, from, to, kinds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
