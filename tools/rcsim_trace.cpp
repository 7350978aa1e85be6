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
  // Chain behind the scenario's online ConvergenceAnalyzer (when enabled)
  // so the selftest also proves the analyzer forwards the stream verbatim.
  sc.attachTraceSink(&sink);
  sc.run();

  obs::ReplayOptions opt;
  opt.src = sc.sender();
  opt.dst = sc.receiver();
  opt.nodeCount = sc.network().nodeCount();
  const obs::ReplayResult r = obs::replayTrace(sink.events(), opt);

  // The stats walker follows route-change hooks, never the FIB itself:
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
      // Chained behind the online analyzer (when enabled): the recorded
      // stream is verbatim either way, and rcsim-inspect --episodes on the
      // file reproduces the analyzer's numbers from the same events.
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
  auto inWindow = [&](Time t) { return t >= from && t <= to; };
  auto want = [&](const char* k) { return kinds.count(k) > 0; };

  // The StatsCollector owns the network hooks; wrap them so both the stats
  // and the trace output see every event.
  auto& hooks = sc.network().hooks();
  const auto prevRoute = hooks.onRouteChange;
  hooks.onRouteChange = [&, prevRoute](Time t, NodeId n, NodeId d, NodeId o, NodeId nw) {
    if (prevRoute) prevRoute(t, n, d, o, nw);
    if (want("rt") && inWindow(t)) {
      std::printf("%12.6f\trt\tnode=%d dst=%d %d -> %d\n", t.toSeconds(), n, d, o, nw);
    }
  };
  const auto prevForward = hooks.onForward;
  hooks.onForward = [&, prevForward](Time t, NodeId n, const Packet& p, NodeId nh) {
    if (prevForward) prevForward(t, n, p, nh);
    if (want("fwd") && inWindow(t) && p.kind == PacketKind::Data) {
      std::printf("%12.6f\tfwd\t%d -> %d  pkt=%llu ttl=%d\n", t.toSeconds(), n, nh,
                  static_cast<unsigned long long>(p.id), p.ttl);
    }
  };
  const auto prevDrop = hooks.onDrop;
  hooks.onDrop = [&, prevDrop](Time t, NodeId n, const Packet& p, DropReason r) {
    if (prevDrop) prevDrop(t, n, p, r);
    if (want("drop") && inWindow(t) && p.kind == PacketKind::Data) {
      std::printf("%12.6f\tdrop\tnode=%d pkt=%llu reason=%s\n", t.toSeconds(), n,
                  static_cast<unsigned long long>(p.id), toString(r));
    }
  };
  const auto prevDeliver = hooks.onDeliver;
  hooks.onDeliver = [&, prevDeliver](Time t, NodeId n, const Packet& p) {
    if (prevDeliver) prevDeliver(t, n, p);
    if (want("del") && inWindow(t) && p.kind == PacketKind::Data) {
      std::printf("%12.6f\tdel\tnode=%d pkt=%llu delay=%.6f hops=%zu\n", t.toSeconds(), n,
                  static_cast<unsigned long long>(p.id), (t - p.sendTime).toSeconds(),
                  p.trace ? p.trace->size() - 1 : 0);
    }
  };
  // Link up/down transitions arrive through the typed tracer's Failure
  // channel now (there are no string traces left to subscribe to).
  class FailPrinter final : public obs::TraceSink {
   public:
    FailPrinter(Time from, Time to) : from_{from}, to_{to} {}
    void onTraceEvent(const obs::TraceEvent& ev) override {
      if (ev.t < from_ || ev.t > to_) return;
      std::printf("%12.6f\tfail\tlink (%d,%d) %s\n", ev.t.toSeconds(), ev.a, ev.b,
                  ev.kind == obs::TraceKind::LinkUp ? "recovered" : "failed");
    }

   private:
    Time from_, to_;
  };
  FailPrinter failPrinter{from, to};
  if (want("fail")) {
    sc.network().trace().setSink(&failPrinter);
    sc.network().trace().setCategoryMask(1u << static_cast<unsigned>(obs::TraceCategory::Failure));
  }

  sc.run();

  if (want("path")) {
    for (const auto& e : sc.stats().pathWalker().events()) {
      if (!inWindow(e.t)) continue;
      printPathEvent(e.t, e.path, e.loop, e.blackhole);
    }
  }
  return 0;
}
