#pragma once

// Serialization of the typed trace stream: the rcsim-trace-v1 JSONL
// format, the in-memory and file-backed sinks, the reader, and a
// deterministic digest over an event sequence. `rcsim-trace --record`
// writes these files; its `--trace=FILE` modes read them.
//
// File layout (one record per line, no record spans lines):
//
//   {"crc":"<8 hex>","hdr":{"meta":{...},"schema":"rcsim-trace-v1"}}
//   {"crc":"<8 hex>","ev":[t_ns,kind,a,b,x,y,z]}
//   ...
//
// where "crc" is CRC-32 (the zlib polynomial, shared with the run journal)
// over the canonical compact serialization (dumpJsonLine) of the "hdr" /
// "ev" value. A torn tail from a mid-write kill fails its CRC and is
// counted + skipped on read, exactly like the journal's framing.

#include <cstdint>
#include <string>
#include <vector>

#include "core/json_lite.hpp"
#include "obs/trace.hpp"

namespace rcsim::obs {

inline constexpr const char* kTraceSchema = "rcsim-trace-v1";

/// Collects events in order; the replayer and tests consume the vector.
class MemoryTraceSink : public TraceSink {
 public:
  void onTraceEvent(const TraceEvent& ev) override { events_.push_back(ev); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Canonical single-line forms (no trailing newline).
[[nodiscard]] std::string encodeTraceLine(const TraceEvent& ev);
[[nodiscard]] std::string encodeTraceHeader(const JsonValue& meta);

/// Parse + CRC-check one event line. Returns false (leaving `out`
/// unspecified) on any corruption; header lines also return false.
[[nodiscard]] bool decodeTraceLine(const std::string& line, TraceEvent& out);

/// FNV-1a digest over the canonical event lines — a compact identity for a
/// whole trace. Two runs with identical seeds/configs produce identical
/// digests (test_obs.cpp pins this determinism).
[[nodiscard]] std::string traceDigest(const std::vector<TraceEvent>& events);

/// Streams events to a file. Buffered (flushed at ~256 KiB); close()
/// flushes, fsyncs and closes, and throws on I/O failure. The destructor
/// closes best-effort for the exception-unwind path.
class FileTraceSink : public TraceSink {
 public:
  /// Creates parent directories, truncates `path`, writes the header line.
  /// `meta` must be a JSON object (run parameters for the replayer).
  FileTraceSink(std::string path, const JsonValue& meta);
  ~FileTraceSink() override;

  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  void onTraceEvent(const TraceEvent& ev) override;
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t eventsWritten() const { return written_; }

 private:
  void writeAll(const char* data, std::size_t size);
  void flushBuffer();

  std::string path_;
  std::string buf_;
  int fd_ = -1;
  std::uint64_t written_ = 0;
};

/// A parsed trace file.
struct TraceFile {
  JsonValue meta;                  ///< the header's "meta" object
  std::vector<TraceEvent> events;  ///< valid events, file order
  std::size_t corrupt = 0;         ///< CRC-failed / malformed lines skipped
};

/// Read a trace. Throws std::runtime_error when the file is missing or its
/// header is absent/corrupt/of the wrong schema; corrupt event lines are
/// skipped and counted instead.
[[nodiscard]] TraceFile readTraceFile(const std::string& path);

}  // namespace rcsim::obs
