#pragma once

// Durable run journal for sweep execution. Every completed (cell, seed)
// replica — a full RunResult snapshot on success, the per-attempt error
// trail on quarantine — is appended as one CRC-guarded JSONL record and
// fsynced before the executor moves on, so a crash, OOM kill or SIGKILL
// loses at most the replicas that were literally in flight. A resumed
// sweep (`rcsim_bench --resume=DIR`) folds journaled successes without
// re-running them; because the RunResult JSON round-trips every field
// bit-exactly, the resumed artifact's per-cell aggregateDigest matches an
// uninterrupted run's.
//
// Line format (one record per line, no record spans lines):
//
//   {"crc":"<8 hex>","rec":{...}}
//
// where "crc" is CRC-32 (the zlib polynomial) over the canonical compact
// serialization (dumpJsonLine) of the "rec" value. A torn tail line from
// a mid-write kill fails the CRC and is skipped on read; the writer also
// repairs a missing trailing newline on reopen so the next append cannot
// merge with torn bytes.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "core/json_lite.hpp"

namespace rcsim::exp {

/// File appended inside the --journal directory.
inline constexpr const char* kJournalFileName = "journal.jsonl";

/// CRC framing hash, shared with the trace stream (core/digest.hpp);
/// re-exported here because the journal tests and format docs name it as
/// part of this module's contract.
using rcsim::crc32Hex;

/// Exact JSON image of a result struct, derived from its field table
/// (core/fields.hpp): each field under its name in snake_case
/// ("dataAfterFailure" -> "data_after_failure"), bools as JSON bools,
/// counters as a positional array, nested structs as objects, numbers in
/// shortest-round-trip form, so fieldsFromJson<R>(fieldsToJson(r)) == r
/// (proven in test_journal.cpp). Decoding throws std::runtime_error on a
/// missing key unless the field is kOptional. Both are defined for
/// RunResult and obs::AnatomySummary (the artifact's `convergence` block);
/// fieldsToJson also for Aggregate and CellStats (its `aggregate` and
/// `totals` blocks).
template <class R>
[[nodiscard]] JsonValue fieldsToJson(const R& r);
template <class R>
[[nodiscard]] R fieldsFromJson(const JsonValue& v);

/// One journaled replica.
struct JournalRecord {
  std::string experiment;    ///< spec name
  std::string cell;          ///< cell id within the experiment
  std::string configDigest;  ///< fnv1aHexDigest over the cell's canonical options
  std::uint64_t seed = 0;
  int attempt = 1;  ///< attempts consumed when the record was written
  bool ok = false;
  RunResult result;                 ///< valid when ok
  std::vector<std::string> errors;  ///< per-attempt trail when quarantined
};

/// Serialize to the single-line on-disk form (no trailing newline).
[[nodiscard]] std::string encodeJournalLine(const JournalRecord& rec);

/// Parse + CRC-check one line; additionally verifies the embedded
/// runResultDigest of ok records. Returns false (and leaves `out`
/// unspecified) on any corruption.
[[nodiscard]] bool decodeJournalLine(const std::string& line, JournalRecord& out);

/// Append-only writer: open once, one write+fsync per record. Thread-safe.
class JournalWriter {
 public:
  /// Creates `dir` (and fsyncs its entry) if needed; opens DIR/journal.jsonl
  /// in append mode, repairing a torn unterminated tail from a previous
  /// kill. Throws std::runtime_error on I/O failure.
  explicit JournalWriter(const std::string& dir);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one record and fsync. Throws std::runtime_error on failure.
  void append(const JournalRecord& rec);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::mutex mu_;
  std::string path_;
  int fd_ = -1;
};

struct JournalReadStats {
  std::size_t records = 0;  ///< valid records decoded
  std::size_t corrupt = 0;  ///< CRC-failed / torn / malformed lines skipped
};

/// Read every valid record from DIR/journal.jsonl; a missing file is an
/// empty journal, corrupt lines are counted and skipped.
[[nodiscard]] std::vector<JournalRecord> readJournal(const std::string& dir,
                                                     JournalReadStats* stats = nullptr);

/// Successful replicas keyed by (experiment, cell, configDigest, seed);
/// when a journal holds duplicates (e.g. a replica re-run across resumes)
/// the later record wins. Quarantined failures are deliberately NOT
/// indexed — resume re-runs them.
class JournalIndex {
 public:
  void add(const JournalRecord& rec);

  [[nodiscard]] static JournalIndex load(const std::string& dir,
                                         JournalReadStats* stats = nullptr);

  [[nodiscard]] const RunResult* find(const std::string& experiment, const std::string& cell,
                                      const std::string& configDigest, std::uint64_t seed) const;

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::string, RunResult> map_;
};

}  // namespace rcsim::exp
