// rcsim-trace — structured trace capture, replay and forensics, in the
// spirit of the paper's §2 methodology ("studying the forwarding and
// routing trace files, thus we can identify the causes of routing loops in
// each circumstance").
//
// Modes:
//   rcsim-trace [key=value ...] [--from=SEC] [--to=SEC] [--kinds=...]
//       Live mode: run one scenario and print a human-readable event log.
//   rcsim-trace [key=value ...] --record=FILE
//       Run one scenario with full-fidelity typed tracing into an
//       rcsim-trace-v1 JSONL file (CRC-framed, torn-tail safe).
//   rcsim-trace --replay=FILE [--from=SEC] [--to=SEC]
//       Reconstruct the transient-path sequence, loop / black-hole windows
//       and MRAI timeline from a recorded trace — no simulation.
//   rcsim-trace [key=value ...] --selftest
//       Run a scenario with tracing on, replay the captured stream, and
//       verify the reconstruction agrees exactly with the live path record
//       and the online analyzer, and that the final path is the live FIB
//       walk. Exit 0 on agreement, 1 on divergence.
//
// Live-mode events (tab-separated): time  kind  detail
//   rt    <node> dst=<d> <old> -> <new>        FIB change
//   fwd   <node> -> <next>  pkt=<id> ttl=<n>   data-plane forwarding
//   drop  <node> pkt=<id> reason=<r>           any packet drop
//   del   <node> pkt=<id> delay=<s> hops=<n>   delivery at the receiver
//   fail  link up/down from the failure detector
//   path  sender->receiver forwarding path snapshots (loops flagged)
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <string>

#include "core/cli.hpp"
#include "core/options.hpp"
#include "core/scenario.hpp"
#include "obs/replay.hpp"
#include "obs/trace_io.hpp"

namespace {

using namespace rcsim;

JsonValue traceMeta(Scenario& sc, const ScenarioConfig& cfg) {
  JsonValue meta = JsonValue::makeObject();
  meta.object["src"] = JsonValue::makeNumber(sc.sender());
  meta.object["dst"] = JsonValue::makeNumber(sc.receiver());
  meta.object["nodes"] = JsonValue::makeNumber(static_cast<double>(sc.network().nodeCount()));
  meta.object["seed"] = JsonValue::makeNumber(static_cast<double>(cfg.seed));
  return meta;
}

void printPathEvent(Time t, const std::vector<NodeId>& path, bool loop, bool blackhole) {
  std::printf("%12.6f\tpath\t%s", t.toSeconds(), loop ? "LOOP " : (blackhole ? "BLACKHOLE " : ""));
  for (std::size_t i = 0; i < path.size(); ++i) std::printf("%s%d", i ? "->" : "", path[i]);
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

int runReplay(const std::string& path, double fromSec, double toSec) {
  const obs::TraceFile file = obs::readTraceFile(path);
  if (file.corrupt > 0) {
    std::fprintf(stderr, "warning: skipped %zu corrupt line(s)\n", file.corrupt);
  }
  const obs::ReplayResult r = obs::replayTrace(file);
  const Time from = Time::seconds(fromSec);
  const Time to = Time::seconds(toSec);

  std::printf("trace\t%s\tevents=%zu corrupt=%zu digest=%s\n", path.c_str(), file.events.size(),
              file.corrupt, obs::traceDigest(file.events).c_str());
  for (int k = 0; k < obs::kTraceKindCount; ++k) {
    if (r.kindCounts[static_cast<std::size_t>(k)] == 0) continue;
    std::printf("count\t%s\t%llu\n", toString(static_cast<obs::TraceKind>(k)),
                static_cast<unsigned long long>(r.kindCounts[static_cast<std::size_t>(k)]));
  }
  for (const auto& e : r.pathEvents) {
    if (e.t >= from && e.t <= to) printPathEvent(e.t, e.path, e.loop, e.blackhole);
  }
  printWindows("loop", r.loopWindows);
  printWindows("blackhole", r.blackholeWindows);
  for (const auto& ev : r.mraiTimeline) {
    if (ev.t < from || ev.t > to) continue;
    switch (ev.kind) {
      case obs::TraceKind::MraiArm: {
        const std::string dst = ev.z >= 0 ? " dst=" + std::to_string(ev.z) : "";
        std::printf("%12.6f\tmrai\tnode=%d peer=%d armed for %.3f s%s\n", ev.t.toSeconds(), ev.a,
                    ev.b, static_cast<double>(ev.x) * 1e-9, dst.c_str());
        break;
      }
      case obs::TraceKind::MraiFire:
        std::printf("%12.6f\tmrai\tnode=%d peer=%d fired, pending=%lld\n", ev.t.toSeconds(), ev.a,
                    ev.b, static_cast<long long>(ev.x));
        break;
      case obs::TraceKind::BgpAdvert:
        std::printf("%12.6f\tbgp\tnode=%d -> peer=%d advert dst=%lld pathlen=%lld\n",
                    ev.t.toSeconds(), ev.a, ev.b, static_cast<long long>(ev.x),
                    static_cast<long long>(ev.y));
        break;
      case obs::TraceKind::BgpWithdraw:
        std::printf("%12.6f\tbgp\tnode=%d -> peer=%d withdraw dst=%lld\n", ev.t.toSeconds(), ev.a,
                    ev.b, static_cast<long long>(ev.x));
        break;
      default: break;
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

  obs::ReplayOptions opt;
  opt.src = sc.sender();
  opt.dst = sc.receiver();
  opt.nodeCount = sc.network().nodeCount();
  const obs::ReplayResult r = obs::replayTrace(sink.events(), opt);

  // The stats walker follows RouteChange events, never the FIB itself:
  // it must equal the replay of the recorded stream event for event, and
  // its final path must be the live FIB walk.
  const auto& walker = sc.stats().pathWalker();
  const auto& live = walker.events();
  if (live != r.pathEvents) {
    std::fprintf(stderr, "selftest: FAIL — live %zu path events diverge from replay's %zu\n",
                 live.size(), r.pathEvents.size());
    return 1;
  }
  if (walker.currentPath() != sc.network().fibWalk(sc.sender(), sc.receiver())) {
    std::fprintf(stderr, "selftest: FAIL — final walked path differs from the live FIB walk\n");
    return 1;
  }
  // The streaming ConvergenceAnalyzer that watched the run live must agree with the
  // offline replay element-wise (the fuzzer enforces this on random
  // scenarios; the selftest pins it on the canonical ones).
  if (const auto* anatomy = sc.convergenceAnalyzer()) {
    const auto& online = anatomy->report();
    if (online.pathEvents != r.pathEvents || online.loopWindows != r.loopWindows ||
        online.blackholeWindows != r.blackholeWindows || online.kindCounts != r.kindCounts ||
        online.delivered != r.delivered || online.dropped != r.dropped) {
      std::fprintf(stderr, "selftest: FAIL — online analyzer diverges from offline replay\n");
      return 1;
    }
  }
  std::printf("selftest: OK — %zu path events, %zu trace events, digest=%s\n", live.size(),
              sink.events().size(), obs::traceDigest(sink.events()).c_str());
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
                    (ev.t - Time::nanoseconds(ev.y)).toSeconds(),
                    static_cast<long long>(ev.z > 0 ? ev.z - 1 : 0));
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

}  // namespace

int main(int argc, char** argv) {
  using namespace rcsim;

  ScenarioConfig cfg;
  double fromSec = 395.0;
  double toSec = 460.0;
  std::set<std::string> kinds{"rt", "fwd", "drop", "del", "fail", "path"};
  std::string recordPath;
  std::string replayPath;
  bool selftest = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") {
        std::printf("usage: rcsim-trace [key=value ...] [--from=SEC] [--to=SEC]"
                    " [--kinds=rt,fwd,drop,del,fail,path]\n"
                    "       rcsim-trace [key=value ...] --record=FILE\n"
                    "       rcsim-trace --replay=FILE [--from=SEC] [--to=SEC]\n"
                    "       rcsim-trace [key=value ...] --selftest\n");
        return 0;
      }
      if (arg.rfind("--from=", 0) == 0) {
        fromSec = cli::parseFiniteDouble(arg.substr(7), "--from");
      } else if (arg.rfind("--to=", 0) == 0) {
        toSec = cli::parseFiniteDouble(arg.substr(5), "--to");
      } else if (arg.rfind("--record=", 0) == 0) {
        recordPath = arg.substr(9);
        if (recordPath.empty()) throw std::runtime_error("--record needs a file path");
      } else if (arg.rfind("--replay=", 0) == 0) {
        replayPath = arg.substr(9);
        if (replayPath.empty()) throw std::runtime_error("--replay needs a file path");
      } else if (arg == "--selftest") {
        selftest = true;
      } else if (arg.rfind("--kinds=", 0) == 0) {
        kinds.clear();
        std::string list = arg.substr(8);
        std::size_t pos = 0;
        while (pos != std::string::npos) {
          const auto comma = list.find(',', pos);
          kinds.insert(list.substr(pos, comma == std::string::npos ? comma : comma - pos));
          pos = comma == std::string::npos ? comma : comma + 1;
        }
      } else {
        applyOptionString(cfg, arg);
      }
    }

    if (!replayPath.empty()) return runReplay(replayPath, fromSec, toSec);
    if (selftest) return runSelftest(cfg);

    if (!recordPath.empty()) {
      Scenario sc{cfg};
      obs::FileTraceSink sink{recordPath, traceMeta(sc, cfg)};
      // The recorder sees the same stream as the online analyzer, so
      // rcsim-inspect --episodes on the file reproduces the analyzer's
      // numbers from the same events.
      sc.attachTraceSink(&sink);
      sc.run();
      sc.attachTraceSink(nullptr);
      sink.close();
      std::printf("recorded %llu events to %s\n",
                  static_cast<unsigned long long>(sink.eventsWritten()), recordPath.c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  Scenario sc{cfg};
  const Time from = Time::seconds(fromSec);
  const Time to = Time::seconds(toSec);
  LivePrinter printer{from, to, kinds};
  sc.attachTraceSink(&printer);
  sc.run();

  if (kinds.count("path") > 0) {
    for (const auto& e : sc.stats().pathWalker().events()) {
      if (e.t < from || e.t > to) continue;
      printPathEvent(e.t, e.path, e.loop, e.blackhole);
    }
  }
  return 0;
}
