// Run-journal and resume/retry tests: CRC framing, exact RunResult JSON
// round-trip, torn-line tolerance, resume folding without re-execution,
// retry-with-backoff quarantine semantics, and graceful cancel drain.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/json_lite.hpp"
#include "exp/executor.hpp"
#include "exp/journal.hpp"
#include "exp/spec.hpp"

namespace rcsim::exp {
namespace {

/// Unique scratch directory removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "rcsim_journal_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ScenarioConfig tinyConfig(int degree) {
  ScenarioConfig cfg;
  cfg.mesh.degree = degree;
  cfg.trafficStart = Time::seconds(80.0);
  cfg.failAt = Time::seconds(100.0);
  cfg.trafficStop = Time::seconds(140.0);
  cfg.endAt = Time::seconds(200.0);
  return cfg;
}

/// A deterministic synthetic RunResult with every field populated, so the
/// JSON round-trip is exercised without simulating.
RunResult syntheticResult(std::uint64_t seed) {
  RunResult r;
  r.protocol = ProtocolKind::Bgp3;
  r.degree = 4;
  r.seed = seed;
  r.sent = 1000 + seed;
  r.data.delivered = 900;
  r.data.forwarded = 5000;
  r.data.dropNoRoute = 50;
  r.data.dropTtl = 20;
  r.data.dropQueue = 10;
  r.data.dropLinkDown = 5;
  r.data.dropInFlightCut = 3;
  r.data.dropLoss = 7;
  r.data.dropCorrupt = 5;
  r.dataAfterFailure.dropNoRoute = 33;
  r.control.forwarded = 777;
  r.loopEscapedDeliveries = 4;
  r.controlMessages = 1234;
  r.controlBytes = 99999;
  r.controlMessagesAfterFailure = 321;
  r.tcpGoodputPackets = 17;
  r.tcpRetransmissions = 2;
  r.transportRetransmissions = 8;
  r.transportSessionResets = 1;
  r.routingConvergenceSec = 12.375 + static_cast<double>(seed) / 3.0;
  r.forwardingConvergenceSec = 0.1 + 1.0 / 7.0;
  r.transientPaths = 5;
  r.sawLoop = true;
  r.sawBlackhole = false;
  r.preFailurePathShortest = true;
  r.preFailurePathHops = 3;
  r.finalPathShortest = false;
  r.routeChangesAfterFailure = 11;
  r.throughput = {80.0, 79.5, 1.0 / 3.0, 0.0};
  r.meanDelay = {0.01, 0.0123456789012345678, 0.0};
  r.failSec = 100;
  r.eventsExecuted = 123456789;
  r.anatomy.episodes = 2;
  r.anatomy.triggers = 3;
  r.anatomy.detectedEpisodes = 2;
  r.anatomy.detectionSecTotal = 0.5 + 1.0 / 3.0;
  r.anatomy.convergedEpisodes = 1;
  r.anatomy.convergenceSecTotal = 2.25;
  r.anatomy.fibChurn = 19;
  r.anatomy.loopWindows = 1;
  r.anatomy.loopSeconds = 0.75;
  r.anatomy.blackholeWindows = 2;
  r.anatomy.blackholeSeconds = 1.0 / 7.0;
  r.anatomy.dropsLoop = 4;
  r.anatomy.dropsBlackhole = 6;
  r.anatomy.dropsTtl = 1;
  r.anatomy.dropsQueue = 2;
  r.anatomy.dropsOther = 1;
  r.anatomy.delivered = 500;
  r.anatomy.controlMessages = 321;
  r.anatomy.controlBytes = 65432;
  r.anatomy.helloMessages = 50;
  r.anatomy.helloBytes = 800;
  r.anatomy.dvTriggered = 9;
  r.anatomy.dvPeriodic = 30;
  r.anatomy.mraiArmed = 5;
  r.anatomy.mraiFired = 5;
  return r;
}

TEST(Journal, Crc32MatchesKnownVector) {
  // The classic CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32Hex("123456789"), "cbf43926");
  EXPECT_EQ(crc32Hex(""), "00000000");
}

TEST(Digest, Fnv1aMatchesStandardVectors) {
  // The published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1aHexDigest(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1aHexDigest("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fnv1aHexDigest("foobar"), "85944171f73967e8");
  // Incremental feeding hashes like the concatenation; a word is its
  // eight bytes, least significant first.
  EXPECT_EQ(Fnv1a{}.add("foo").add("bar").hex(), "85944171f73967e8");
  EXPECT_EQ(Fnv1a{}.addWord(0x0807060504030201ull).value(),
            Fnv1a{}.add(std::string_view{"\x01\x02\x03\x04\x05\x06\x07\x08", 8}).value());
}

TEST(Journal, RunResultJsonRoundTripsBitExactly) {
  const RunResult r = syntheticResult(42);
  const RunResult back = runResultFromJson(parseJson(dumpJsonLine(runResultToJson(r))));
  EXPECT_EQ(runResultFingerprint(back), runResultFingerprint(r));
  EXPECT_EQ(runResultDigest(back), runResultDigest(r));
  // The run digest deliberately excludes the anatomy block (the golden
  // digests predate it), so the convergence rollup needs its own check —
  // resumed journals must fold the same summaries as a fresh run.
  EXPECT_EQ(back.anatomy, r.anatomy);
  EXPECT_EQ(anatomyDigest(back.anatomy), anatomyDigest(r.anatomy));
}

TEST(Journal, EncodeDecodeLineRoundTrip) {
  JournalRecord rec;
  rec.experiment = "demo";
  rec.cell = "RIP/degree=3";
  rec.configDigest = "0123456789abcdef";
  rec.seed = 7;
  rec.attempt = 2;
  rec.ok = true;
  rec.result = syntheticResult(7);

  const std::string line = encodeJournalLine(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  JournalRecord back;
  ASSERT_TRUE(decodeJournalLine(line, back));
  EXPECT_EQ(back.experiment, "demo");
  EXPECT_EQ(back.cell, "RIP/degree=3");
  EXPECT_EQ(back.configDigest, "0123456789abcdef");
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.attempt, 2);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(runResultFingerprint(back.result), runResultFingerprint(rec.result));

  JournalRecord fail;
  fail.experiment = "demo";
  fail.cell = "RIP/degree=3";
  fail.configDigest = "0123456789abcdef";
  fail.seed = 9;
  fail.attempt = 2;
  fail.ok = false;
  fail.errors = {"watchdog: replica exceeded wall-clock budget of 1.0s", "boom"};
  ASSERT_TRUE(decodeJournalLine(encodeJournalLine(fail), back));
  EXPECT_FALSE(back.ok);
  ASSERT_EQ(back.errors.size(), 2u);
  EXPECT_EQ(back.errors[1], "boom");
}

TEST(Journal, DecodeRejectsCorruption) {
  JournalRecord rec;
  rec.experiment = "demo";
  rec.cell = "c";
  rec.seed = 1;
  rec.ok = true;
  rec.result = syntheticResult(1);
  std::string line = encodeJournalLine(rec);

  JournalRecord out;
  // Flip one byte in the middle of the payload: CRC must catch it.
  std::string tampered = line;
  const std::size_t mid = tampered.size() / 2;
  tampered[mid] = tampered[mid] == '0' ? '1' : '0';
  EXPECT_FALSE(decodeJournalLine(tampered, out));
  // A torn (truncated) line from a mid-write SIGKILL fails to parse.
  EXPECT_FALSE(decodeJournalLine(line.substr(0, line.size() / 2), out));
  EXPECT_FALSE(decodeJournalLine("not json at all", out));
  EXPECT_TRUE(decodeJournalLine(line, out));
}

TEST(Journal, WriterReaderRoundTripAndTornTailTolerance) {
  TempDir dir;
  {
    JournalWriter w{dir.path()};
    for (std::uint64_t s = 1; s <= 3; ++s) {
      JournalRecord rec;
      rec.experiment = "demo";
      rec.cell = "c";
      rec.configDigest = "deadbeefdeadbeef";
      rec.seed = s;
      rec.ok = s != 2;
      if (rec.ok) {
        rec.result = syntheticResult(s);
      } else {
        rec.errors = {"first boom", "second boom"};
      }
      w.append(rec);
    }
  }
  JournalReadStats stats;
  auto records = readJournal(dir.path(), &stats);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.corrupt, 0u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(records[1].ok);

  // Simulate a SIGKILL mid-append: an unterminated torn tail.
  {
    std::ofstream out{std::filesystem::path{dir.path()} / kJournalFileName,
                      std::ios::binary | std::ios::app};
    out << "{\"crc\":\"00000000\",\"rec\":{\"truncated";
  }
  records = readJournal(dir.path(), &stats);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.corrupt, 1u);

  // Reopening the writer repairs the torn tail so the next append starts
  // on a fresh line and is NOT merged into the garbage.
  {
    JournalWriter w{dir.path()};
    JournalRecord rec;
    rec.experiment = "demo";
    rec.cell = "c";
    rec.configDigest = "deadbeefdeadbeef";
    rec.seed = 4;
    rec.ok = true;
    rec.result = syntheticResult(4);
    w.append(rec);
  }
  records = readJournal(dir.path(), &stats);
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.corrupt, 1u);

  // A missing journal is an empty journal, not an error.
  EXPECT_TRUE(readJournal(dir.path() + "/no_such_subdir", &stats).empty());
  EXPECT_EQ(stats.records, 0u);
}

TEST(Journal, IndexLaterRecordWinsAndConfigIsPartOfTheKey) {
  JournalRecord rec;
  rec.experiment = "demo";
  rec.cell = "c";
  rec.configDigest = "aaaa";
  rec.seed = 5;
  rec.ok = true;
  rec.result = syntheticResult(5);

  JournalIndex idx;
  idx.add(rec);
  rec.result.sent = 777;  // a re-run of the same replica: later wins
  idx.add(rec);
  ASSERT_NE(idx.find("demo", "c", "aaaa", 5), nullptr);
  EXPECT_EQ(idx.find("demo", "c", "aaaa", 5)->sent, 777u);
  EXPECT_EQ(idx.find("demo", "c", "bbbb", 5), nullptr);  // changed config: no hit
  EXPECT_EQ(idx.find("demo", "c", "aaaa", 6), nullptr);

  rec.ok = false;  // quarantined replicas are not indexed — resume re-runs them
  rec.seed = 6;
  idx.add(rec);
  EXPECT_EQ(idx.find("demo", "c", "aaaa", 6), nullptr);
}

TEST(Journal, ResumeFoldsJournaledReplicasWithoutRerunning) {
  TempDir dir;
  auto executions = std::make_shared<std::atomic<int>>(0);

  ExperimentSpec spec;
  spec.name = "resume_demo";
  for (const int degree : {3, 4}) {
    CellSpec cell;
    cell.id = "synthetic/degree=" + std::to_string(degree);
    cell.config = tinyConfig(degree);
    cell.run = [executions](const ScenarioConfig& cfg) {
      executions->fetch_add(1);
      return syntheticResult(cfg.seed);
    };
    spec.cells.push_back(std::move(cell));
  }

  ExperimentResult first;
  {
    JournalWriter journal{dir.path()};
    JobOptions opts;
    opts.journal = &journal;
    SweepExecutor executor{2};
    first = executor.finish(executor.submit(spec, 3, opts));
  }
  EXPECT_EQ(executions->load(), 6);
  ASSERT_EQ(first.cells.size(), 2u);

  // Resume from the journal: every replica folds from disk, nothing runs,
  // and the aggregates are bit-identical.
  const JournalIndex index = JournalIndex::load(dir.path());
  EXPECT_EQ(index.size(), 6u);
  JobOptions opts;
  opts.resume = &index;
  SweepExecutor executor{2};
  const ExperimentResult resumed = executor.finish(executor.submit(spec, 3, opts));
  EXPECT_EQ(executions->load(), 6) << "resume must not re-run journaled replicas";
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    EXPECT_EQ(aggregateDigest(resumed.cells[c].agg), aggregateDigest(first.cells[c].agg));
    EXPECT_EQ(resumed.cells[c].totals.sent, first.cells[c].totals.sent);
  }

  // Partial journals resume too: a fresh experiment name misses the index
  // entirely and re-runs everything.
  ExperimentSpec other = spec;
  other.name = "resume_demo_other";
  const ExperimentResult rerun = executor.finish(executor.submit(other, 3, opts));
  EXPECT_EQ(executions->load(), 12);
  EXPECT_EQ(aggregateDigest(rerun.cells[0].agg), aggregateDigest(first.cells[0].agg));
}

TEST(Journal, RetryThenSuccessFoldsIdenticallyToFirstTrySuccess) {
  // Every replica fails its first attempt, succeeds on the retry.
  auto attempts = std::make_shared<std::array<std::atomic<int>, 16>>();

  ExperimentSpec flaky;
  flaky.name = "flaky";
  CellSpec cell;
  cell.id = "c";
  cell.config = tinyConfig(3);
  cell.run = [attempts](const ScenarioConfig& cfg) {
    if ((*attempts)[cfg.seed % 16].fetch_add(1) == 0) {
      throw std::runtime_error("transient failure on seed " + std::to_string(cfg.seed));
    }
    return syntheticResult(cfg.seed);
  };
  flaky.cells.push_back(cell);

  ExperimentSpec clean = flaky;
  clean.name = "clean";
  clean.cells[0].run = [](const ScenarioConfig& cfg) { return syntheticResult(cfg.seed); };

  SweepExecutor executor{2};
  JobOptions opts;
  opts.retry.maxAttempts = 2;
  opts.retry.backoffBaseSec = 0.001;  // keep the test fast
  const ExperimentResult flakyRes = executor.finish(executor.submit(flaky, 3, opts));
  const ExperimentResult cleanRes = executor.finish(executor.submit(clean, 3, opts));

  ASSERT_FALSE(flakyRes.cells[0].failed());
  EXPECT_EQ(aggregateDigest(flakyRes.cells[0].agg), aggregateDigest(cleanRes.cells[0].agg));
  // The error trail of the failed first attempts is preserved.
  ASSERT_EQ(flakyRes.cells[0].retries.size(), 3u);
  EXPECT_EQ(flakyRes.cells[0].retries[0].attempts.size(), 1u);
  EXPECT_NE(flakyRes.cells[0].retries[0].attempts[0].find("transient failure"),
            std::string::npos);
  EXPECT_TRUE(cleanRes.cells[0].retries.empty());
}

TEST(Journal, QuarantineAfterMaxAttemptsKeepsPerAttemptTrail) {
  ExperimentSpec spec;
  spec.name = "always_fails";
  CellSpec cell;
  cell.id = "c";
  cell.config = tinyConfig(3);
  cell.run = [](const ScenarioConfig& cfg) -> RunResult {
    throw std::runtime_error("boom seed " + std::to_string(cfg.seed));
  };
  spec.cells.push_back(std::move(cell));

  SweepExecutor executor{2};
  JobOptions opts;
  opts.retry.maxAttempts = 3;
  opts.retry.backoffBaseSec = 0.001;
  const ExperimentResult res = executor.finish(executor.submit(spec, 2, opts));
  ASSERT_TRUE(res.cells[0].failed());
  ASSERT_EQ(res.cells[0].failures.size(), 2u);
  for (const auto& f : res.cells[0].failures) {
    EXPECT_EQ(f.attempts.size(), 3u) << "every attempt's error is kept";
    EXPECT_EQ(f.error, f.attempts.back());
    EXPECT_NE(f.error.find("boom seed " + std::to_string(f.seed)), std::string::npos);
  }
}

TEST(Journal, CancelStopsClaimingAndDrainsInFlight) {
  auto executions = std::make_shared<std::atomic<int>>(0);

  ExperimentSpec spec;
  spec.name = "cancel_demo";
  CellSpec cell;
  cell.id = "slow";
  cell.config = tinyConfig(3);
  cell.run = [executions](const ScenarioConfig& cfg) {
    executions->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return syntheticResult(cfg.seed);
  };
  spec.cells.push_back(std::move(cell));

  SweepExecutor executor{2};
  auto job = executor.submit(spec, 64);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  executor.requestCancel();
  const ExperimentResult res = executor.finish(job);  // must not hang
  const int ran = executions->load();
  EXPECT_GT(ran, 0);
  EXPECT_LT(ran, 64) << "cancel should stop new claims well before the sweep completes";
  EXPECT_EQ(res.runs, 64);

  // A submit after cancel finishes immediately without running anything.
  const int before = executions->load();
  (void)executor.finish(executor.submit(spec, 4));
  EXPECT_EQ(executions->load(), before);
}

}  // namespace
}  // namespace rcsim::exp
