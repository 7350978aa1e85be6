// Run-journal and resume/retry tests: CRC framing, exact RunResult JSON
// round-trip, frozen journal lines, torn-line tolerance, resume folding
// without re-execution, retry-with-backoff quarantine semantics, and
// graceful cancel drain; plus the pinned replica folds and artifact blocks
// of a synthetic batch.

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
#include "exp/artifact.hpp"
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

/// A deterministic synthetic RunResult with every field set to a
/// non-default value, so the JSON round-trip is exercised without
/// simulating and a field the table leaves out fails it.
RunResult syntheticResult(std::uint64_t seed) {
  RunResult r;
  r.protocol = ProtocolKind::Bgp3;
  r.degree = 4;
  r.seed = seed;
  r.sent = 1000 + seed;
  r.data = {900, 5000, 50, 20, 10, 5, 3, 7, 5};
  r.dataAfterFailure = {400, 2100, 33, 12, 4, 2, 1, 3, 2};
  r.control = {6100, 777, 9, 8, 6, 4, 2, 1, 1};
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
  r.sawBlackhole = true;
  r.preFailurePathShortest = true;
  r.preFailurePathHops = 3;
  r.finalPathShortest = true;
  r.routeChangesAfterFailure = 11;
  r.throughput = {80.0, 79.5, 1.0 / 3.0, 0.0};
  r.meanDelay = {0.01, 0.0123456789012345678, 0.0};
  r.failSec = 100;
  r.eventsExecuted = 123456789;
  r.fibDigestBefore = "0f1e2d3c4b5a6978";
  r.fibDigestAfter = "8796a5b4c3d2e1f0";
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

/// Three replicas of one cell for the fold pins: series of different
/// lengths, seconds where some runs have no delay sample (meanDelay 0), and
/// scalars that differ between runs.
std::vector<RunResult> syntheticBatch() {
  std::vector<RunResult> batch{syntheticResult(1), syntheticResult(2), syntheticResult(3)};
  batch[1].throughput = {81.0, 0.5, 2.0 / 3.0, 40.0, 1e-3, 7.0};
  batch[1].meanDelay = {0.0, 0.02, 0.5 / 3.0, 0.0, 0.004, 0.0};
  batch[1].sawLoop = false;
  batch[1].transientPaths = 2;
  batch[1].dataAfterFailure.dropTtl = 1;
  batch[1].dataAfterFailure.dropInFlightCut = 9;
  batch[1].loopEscapedDeliveries = 0;
  batch[1].forwardingConvergenceSec = 1.0 / 3.0;
  batch[1].anatomy.detectionSecTotal = 0.1;
  batch[2].throughput = {1.0 / 7.0, 79.0};
  batch[2].meanDelay = {0.011, 0.0};
  batch[2].data.dropQueue = 41;
  batch[2].dataAfterFailure.dropNoRoute = 7;
  batch[2].controlBytes = 12345;
  batch[2].transportSessionResets = 6;
  batch[2].anatomy.loopSeconds = 1.0 / 9.0;
  return batch;
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
  const RunResult back = fieldsFromJson<RunResult>(parseJson(dumpJsonLine(fieldsToJson(r))));
  EXPECT_EQ(back, r);
}

JournalRecord demoRecord() {
  JournalRecord rec;
  rec.experiment = "demo";
  rec.cell = "RIP/degree=3";
  rec.configDigest = "0123456789abcdef";
  rec.seed = 7;
  rec.attempt = 2;
  rec.ok = true;
  rec.result = syntheticResult(7);
  return rec;
}

TEST(Journal, EncodeDecodeLineRoundTrip) {
  const JournalRecord rec = demoRecord();
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
  EXPECT_EQ(back.result, rec.result);

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

// Two journal lines written by the encoder before it was derived from the
// field tables: demoRecord() as encoded then, and the same record as a
// journal from before the FIB digests and the anatomy block existed (those
// three keys removed and the CRC recomputed).
constexpr const char* kFrozenLine =
    R"json({"crc":"1650db36","rec":{"attempt":2,"cell":"RIP/degree=3","config":"0123456789ab)json"
    R"json(cdef","digest":"772727723b35ec08","experiment":"demo","ok":true,"result":{"anatom)json"
    R"json(y":{"blackhole_seconds":0.14285714285714285,"blackhole_windows":2,"control_bytes")json"
    R"json(:65432,"control_messages":321,"converged_episodes":1,"convergence_sec_total":2.25)json"
    R"json(,"delivered":500,"detected_episodes":2,"detection_sec_total":0.8333333333333333,")json"
    R"json(drops_blackhole":6,"drops_loop":4,"drops_other":1,"drops_queue":2,"drops_ttl":1,")json"
    R"json(dv_periodic":30,"dv_triggered":9,"episodes":2,"fib_churn":19,"hello_bytes":800,"h)json"
    R"json(ello_messages":50,"loop_seconds":0.75,"loop_windows":1,"mrai_armed":5,"mrai_fired)json"
    R"json(":5,"triggers":3},"control":[6100,777,9,8,6,4,2,1,1],"control_bytes":99999,"contr)json"
    R"json(ol_messages":1234,"control_messages_after_failure":321,"data":[900,5000,50,20,10,)json"
    R"json(5,3,7,5],"data_after_failure":[400,2100,33,12,4,2,1,3,2],"degree":4,"events_execu)json"
    R"json(ted":123456789,"fail_sec":100,"fib_digest_after":"8796a5b4c3d2e1f0","fib_digest_b)json"
    R"json(efore":"0f1e2d3c4b5a6978","final_path_shortest":true,"forwarding_convergence_sec")json"
    R"json(:0.24285714285714285,"loop_escaped_deliveries":4,"mean_delay":[0.01,0.01234567890)json"
    R"json(1234568,0],"pre_failure_path_hops":3,"pre_failure_path_shortest":true,"protocol":)json"
    R"json(3,"route_changes_after_failure":11,"routing_convergence_sec":14.708333333333334,")json"
    R"json(saw_blackhole":true,"saw_loop":true,"seed":7,"sent":1007,"tcp_goodput_packets":17)json"
    R"json(,"tcp_retransmissions":2,"throughput":[80,79.5,0.3333333333333333,0],"transient_p)json"
    R"json(aths":5,"transport_retransmissions":8,"transport_session_resets":1},"seed":7}})json";
constexpr const char* kFrozenLineWithoutOptionalKeys =
    R"json({"crc":"841b5b05","rec":{"attempt":2,"cell":"RIP/degree=3","config":"0123456789ab)json"
    R"json(cdef","digest":"772727723b35ec08","experiment":"demo","ok":true,"result":{"contro)json"
    R"json(l":[6100,777,9,8,6,4,2,1,1],"control_bytes":99999,"control_messages":1234,"contro)json"
    R"json(l_messages_after_failure":321,"data":[900,5000,50,20,10,5,3,7,5],"data_after_fail)json"
    R"json(ure":[400,2100,33,12,4,2,1,3,2],"degree":4,"events_executed":123456789,"fail_sec")json"
    R"json(:100,"final_path_shortest":true,"forwarding_convergence_sec":0.24285714285714285,)json"
    R"json("loop_escaped_deliveries":4,"mean_delay":[0.01,0.012345678901234568,0],"pre_failu)json"
    R"json(re_path_hops":3,"pre_failure_path_shortest":true,"protocol":3,"route_changes_afte)json"
    R"json(r_failure":11,"routing_convergence_sec":14.708333333333334,"saw_blackhole":true,")json"
    R"json(saw_loop":true,"seed":7,"sent":1007,"tcp_goodput_packets":17,"tcp_retransmissions)json"
    R"json(":2,"throughput":[80,79.5,0.3333333333333333,0],"transient_paths":5,"transport_re)json"
    R"json(transmissions":8,"transport_session_resets":1},"seed":7}})json";

TEST(Journal, EncoderReproducesFrozenLineByteForByte) {
  EXPECT_EQ(encodeJournalLine(demoRecord()), kFrozenLine);
  JournalRecord back;
  ASSERT_TRUE(decodeJournalLine(kFrozenLine, back));
  EXPECT_EQ(back.result, syntheticResult(7));
  EXPECT_EQ(encodeJournalLine(back), kFrozenLine);
}

TEST(Journal, MissingOptionalKeysDecodeToDefaultsAndOthersReject) {
  JournalRecord back;
  ASSERT_TRUE(decodeJournalLine(kFrozenLineWithoutOptionalKeys, back));
  RunResult expected = syntheticResult(7);
  expected.fibDigestBefore.clear();
  expected.fibDigestAfter.clear();
  expected.anatomy = obs::AnatomySummary{};
  EXPECT_EQ(back.result, expected);

  // Any other missing key rejects the record, pinned or not.
  for (const char* key : {"transport_session_resets", "saw_loop", "data"}) {
    JsonValue doc = parseJson(kFrozenLineWithoutOptionalKeys);
    doc.object["rec"].object["result"].object.erase(key);
    doc.object["crc"] = JsonValue::makeString(crc32Hex(dumpJsonLine(doc.at("rec"))));
    EXPECT_FALSE(decodeJournalLine(dumpJsonLine(doc), back)) << key;
  }
}

// The replica folds and the artifact blocks they feed, recorded on
// syntheticBatch() before the folds and encoders were derived from the
// field tables: a fold or encoder that drifts fails here, not only in the
// end-to-end benchmark's workload pins.
TEST(Aggregate, SyntheticBatchFoldsToPinnedDigestsAndBlocks) {
  const std::vector<RunResult> batch = syntheticBatch();
  EXPECT_EQ(runResultDigest(batch[0]), "39057750ab6f874e");
  EXPECT_EQ(runResultDigest(batch[1]), "c0a01f48a5982f01");
  EXPECT_EQ(runResultDigest(batch[2]), "a45ab45644601535");

  CellResult cell;
  cell.agg = Aggregate::over(batch);
  cell.totals = CellStats::over(batch);
  for (const RunResult& r : batch) cell.convergence += r.anatomy;
  EXPECT_EQ(aggregateDigest(cell.agg), "507de34da4488273");
  EXPECT_EQ(anatomyDigest(cell.convergence), "849fe5ac96d76dbd");

  ExperimentSpec spec;
  spec.name = "synthetic";
  spec.cells.resize(1);
  ExperimentResult result;
  result.runs = 3;
  result.cells.push_back(cell);
  const auto block = [&](const char* key) {
    return dumpJsonLine(buildArtifact(spec, result).at("cells").array[0].at(key));
  };
  EXPECT_EQ(block("aggregate"),
            R"json({"delivered":900,"drops_no_route":24.333333333333332,"drops_other":9.6666)json"
            R"json(66666666666,"drops_ttl":8.333333333333334,"fail_sec":100,"forwarding_conv)json"
            R"json(ergence_sec":0.273015873015873,"loop_escaped_deliveries":2.66666666666666)json"
            R"json(65,"loop_fraction":0.6666666666666666,"routing_convergence_sec":13.041666)json"
            R"json(666666666,"runs":3,"sent":1002,"transient_paths":4})json");
  EXPECT_EQ(block("totals"),
            R"json({"control_bytes":212343,"control_messages":3702,"control_messages_after_f)json"
            R"json(ailure":963,"delivered":2700,"drop_no_route":150,"drop_queue":61,"sent":3)json"
            R"json(006,"tcp_goodput_packets":51,"tcp_retransmissions":6,"transport_retransmi)json"
            R"json(ssions":24,"transport_session_resets":8})json");
  EXPECT_EQ(block("convergence"),
            R"json({"blackhole_seconds":0.42857142857142855,"blackhole_windows":6,"control_b)json"
            R"json(ytes":196296,"control_messages":963,"converged_episodes":3,"convergence_s)json"
            R"json(ec_total":6.75,"delivered":1500,"detected_episodes":6,"detection_sec_tota)json"
            R"json(l":1.7666666666666666,"drops_blackhole":18,"drops_loop":12,"drops_other":)json"
            R"json(3,"drops_queue":6,"drops_ttl":3,"dv_periodic":90,"dv_triggered":27,"episo)json"
            R"json(des":6,"fib_churn":57,"hello_bytes":2400,"hello_messages":150,"loop_secon)json"
            R"json(ds":1.6111111111111112,"loop_windows":3,"mrai_armed":15,"mrai_fired":15,")json"
            R"json(triggers":9})json");
  spec.jsonSeries = true;
  EXPECT_EQ(block("aggregate"),
            R"json({"delivered":900,"drops_no_route":24.333333333333332,"drops_other":9.6666)json"
            R"json(66666666666,"drops_ttl":8.333333333333334,"fail_sec":100,"forwarding_conv)json"
            R"json(ergence_sec":0.273015873015873,"loop_escaped_deliveries":2.66666666666666)json"
            R"json(65,"loop_fraction":0.6666666666666666,"mean_delay":[0.010499999999999999,)json"
            R"json(0.016172839450617284,0.16666666666666666,0,0.004,0],"routing_convergence_)json"
            R"json(sec":13.041666666666666,"runs":3,"sent":1002,"throughput":[53.71428571428)json"
            R"json(5715,53,0.3333333333333333,13.333333333333334,0.0003333333333333333,2.333)json"
            R"json(3333333333335],"transient_paths":4})json");
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
    EXPECT_EQ(resumed.cells[c].totals, first.cells[c].totals);
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
