// rcsim — command-line driver for the simulator.
//
// Run one configuration over N seeds and print a summary, CSV rows, or a
// per-second series. Every ScenarioConfig field is reachable through
// key=value flags (see core/options.hpp for the full list).
//
//   rcsim [key=value ...] [--runs=N] [--threads=K] [--format=table|csv|series]
//
// Examples:
//   rcsim protocol=RIP degree=3 --runs=100
//   rcsim protocol=BGP3 degree=5 failures=3 fail-spacing=5 --format=csv
//   rcsim protocol=DBF topology=random random.avg-degree=4 --format=series
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"

namespace {

using rcsim::cli::parsePositiveInt;  // strict: "--runs=abc" throws, no silent atoi 0

void printUsage() {
  std::printf(
      "usage: rcsim [key=value ...] [--runs=N] [--threads=K]\n"
      "             [--format=table|csv|series]\n"
      "scenario keys: protocol topology degree rows cols random.nodes\n"
      "  random.avg-degree seed flows traffic rate bytes ttl window\n"
      "  traffic-start traffic-stop failures fail-at fail-spacing\n"
      "  repair-after no-failure end-at bandwidth prop-delay-ms queue\n"
      "  detect-ms dv.* bgp.* ls.*  (see src/core/options.hpp)\n"
      "env: RCSIM_RUNS (default --runs), RCSIM_THREADS,\n"
      "  RCSIM_REPLICA_WATCHDOG_SEC (per-replica wall-clock limit)\n"
      "exit status: 0 success; 1 a replica failed (e.g. a fault-plan event\n"
      "  names a link or node the topology lacks), 'error: <what>' on stderr;\n"
      "  2 usage error\n");
}

void printTable(const rcsim::Aggregate& a, int runs) {
  std::printf("runs                      : %d\n", runs);
  std::printf("packets sent (mean)       : %.1f\n", a.sent);
  std::printf("packets delivered (mean)  : %.1f\n", a.delivered);
  std::printf("drops no-route (mean)     : %.2f\n", a.dropsNoRoute);
  std::printf("drops ttl-expired (mean)  : %.2f\n", a.dropsTtl);
  std::printf("drops other (mean)        : %.2f\n", a.dropsOther);
  std::printf("fwd-path convergence (s)  : %.3f\n", a.forwardingConvergenceSec);
  std::printf("routing convergence (s)   : %.3f\n", a.routingConvergenceSec);
  std::printf("transient paths (mean)    : %.2f\n", a.transientPaths);
  std::printf("runs with a loop          : %.0f%%\n", 100.0 * a.loopFraction);
}

void printCsv(const std::vector<rcsim::RunResult>& results) {
  std::printf(
      "seed,sent,delivered,drop_no_route,drop_ttl,drop_other,fwd_conv_s,"
      "rt_conv_s,transient_paths,saw_loop,control_msgs,tcp_goodput\n");
  for (const auto& r : results) {
    std::printf("%llu,%llu,%llu,%llu,%llu,%llu,%.4f,%.4f,%d,%d,%llu,%llu\n",
                static_cast<unsigned long long>(r.seed),
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.data.delivered),
                static_cast<unsigned long long>(r.dataAfterFailure.dropNoRoute),
                static_cast<unsigned long long>(r.dataAfterFailure.dropTtl),
                static_cast<unsigned long long>(r.dataAfterFailure.dropQueue +
                                                r.dataAfterFailure.dropLinkDown +
                                                r.dataAfterFailure.dropInFlightCut),
                r.forwardingConvergenceSec, r.routingConvergenceSec, r.transientPaths,
                r.sawLoop ? 1 : 0, static_cast<unsigned long long>(r.controlMessages),
                static_cast<unsigned long long>(r.tcpGoodputPackets));
  }
}

void printSeries(const rcsim::Aggregate& a) {
  std::printf("rel_sec,throughput_pps,mean_delay_s\n");
  for (int rel = -20; rel <= 120; ++rel) {
    const int sec = a.failSec + rel;
    if (sec < 0 || static_cast<std::size_t>(sec) >= a.throughput.size()) continue;
    std::printf("%d,%.2f,%.5f\n", rel, a.throughput[static_cast<std::size_t>(sec)],
                a.meanDelay[static_cast<std::size_t>(sec)]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcsim;

  ScenarioConfig cfg;
  int runs = 0;
  int threads = 0;
  std::string format = "table";

  try {
    runs = defaultRunCount(10);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") {
        printUsage();
        return 0;
      }
      if (arg.rfind("--runs=", 0) == 0) {
        runs = parsePositiveInt(arg.substr(7), "--runs");
      } else if (arg.rfind("--threads=", 0) == 0) {
        threads = parsePositiveInt(arg.substr(10), "--threads");
      } else if (arg.rfind("--format=", 0) == 0) {
        format = arg.substr(9);
      } else {
        applyOptionString(cfg, arg);
      }
    }
    if (runs < 1 || (format != "table" && format != "csv" && format != "series")) {
      printUsage();
      return 2;
    }
    if (threads == 0) threads = defaultThreadCount();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    printUsage();
    return 2;
  }

  // Config echo goes to stderr so `rcsim ... > data.txt` captures only the
  // table (same convention as rcsim_bench's banners).
  if (format == "table") {
    std::fprintf(stderr, "# rcsim");
    for (const auto& opt : describeOptions(cfg)) std::fprintf(stderr, " %s", opt.c_str());
    std::fprintf(stderr, "\n");
  }

  // One cell of `runs` replicas (seeds cfg.seed, cfg.seed + 1, ...) on the
  // sweep executor. Replicas are deterministic, so retrying a failed one
  // would only fail again: the first failure is reported as is. The cell's
  // run hook keeps each replica's RunResult for the CSV rows.
  std::vector<RunResult> results(static_cast<std::size_t>(runs));
  exp::ExperimentSpec spec;
  spec.name = "rcsim";
  exp::CellSpec cell;
  cell.id = "rcsim";
  cell.config = cfg;
  cell.startSeed = cfg.seed;
  cell.run = [&results, first = cfg.seed](const ScenarioConfig& replica) {
    return results[static_cast<std::size_t>(replica.seed - first)] = runScenario(replica);
  };
  spec.cells.push_back(std::move(cell));
  exp::JobOptions options;
  options.retry.maxAttempts = 1;
  exp::SweepExecutor executor{std::min(threads, runs)};
  const exp::ExperimentResult result = executor.finish(executor.submit(spec, runs, options));
  const exp::CellResult& out = result.cells.front();
  if (out.failed()) {
    std::fprintf(stderr, "error: %s\n", out.failures.front().error.c_str());
    return 1;
  }
  const Aggregate& agg = out.agg;
  if (format == "table") {
    printTable(agg, runs);
  } else if (format == "csv") {
    printCsv(results);
  } else {
    printSeries(agg);
  }
  return 0;
}
