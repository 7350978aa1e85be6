#include "obs/trace_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/digest.hpp"
#include "core/durable_io.hpp"

namespace rcsim::obs {

namespace {

constexpr std::size_t kFlushThreshold = 256 * 1024;

JsonValue eventToJson(const TraceEvent& ev) {
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(7);
  // t.ns() stays well inside double's 2^53 exact-integer range for any
  // simulated horizon this project runs (hours of sim time ~ 1e13 ns).
  arr.array.push_back(JsonValue::makeNumber(static_cast<double>(ev.t.ns())));
  arr.array.push_back(JsonValue::makeNumber(static_cast<int>(ev.kind)));
  arr.array.push_back(JsonValue::makeNumber(ev.a));
  arr.array.push_back(JsonValue::makeNumber(ev.b));
  arr.array.push_back(JsonValue::makeNumber(static_cast<double>(ev.x)));
  arr.array.push_back(JsonValue::makeNumber(static_cast<double>(ev.y)));
  arr.array.push_back(JsonValue::makeNumber(static_cast<double>(ev.z)));
  return arr;
}

bool eventFromJson(const JsonValue& v, TraceEvent& out) {
  if (v.kind != JsonValue::Kind::Array || v.array.size() != 7) return false;
  for (const auto& e : v.array) {
    if (e.kind != JsonValue::Kind::Number) return false;
  }
  const int kind = static_cast<int>(v.array[1].number);
  if (kind < 0 || kind >= kTraceKindCount) return false;
  out.t = Time::nanoseconds(static_cast<std::int64_t>(v.array[0].number));
  out.kind = static_cast<TraceKind>(kind);
  out.a = static_cast<NodeId>(v.array[2].number);
  out.b = static_cast<NodeId>(v.array[3].number);
  out.x = static_cast<std::int64_t>(v.array[4].number);
  out.y = static_cast<std::int64_t>(v.array[5].number);
  out.z = static_cast<std::int64_t>(v.array[6].number);
  return true;
}

std::string frame(const char* key, const JsonValue& body) {
  const std::string canonical = dumpJsonLine(body);
  JsonValue line = JsonValue::makeObject();
  line.object["crc"] = JsonValue::makeString(crc32Hex(canonical));
  line.object[key] = body;
  return dumpJsonLine(line);
}

}  // namespace

std::string encodeTraceLine(const TraceEvent& ev) { return frame("ev", eventToJson(ev)); }

std::string encodeTraceHeader(const JsonValue& meta) {
  if (meta.kind != JsonValue::Kind::Object) {
    throw std::runtime_error("trace header meta must be a JSON object");
  }
  JsonValue hdr = JsonValue::makeObject();
  hdr.object["schema"] = JsonValue::makeString(kTraceSchema);
  hdr.object["meta"] = meta;
  return frame("hdr", hdr);
}

bool decodeTraceLine(const std::string& line, TraceEvent& out) {
  try {
    const JsonValue doc = parseJson(line);
    const auto it = doc.object.find("ev");
    if (doc.kind != JsonValue::Kind::Object || it == doc.object.end()) return false;
    if (crc32Hex(dumpJsonLine(it->second)) != doc.stringAt("crc")) return false;
    return eventFromJson(it->second, out);
  } catch (const std::exception&) {
    return false;
  }
}

std::string traceDigest(const std::vector<TraceEvent>& events) {
  Fnv1a h;
  for (const auto& ev : events) h.add(dumpJsonLine(eventToJson(ev))).add("\n");
  return h.hex();
}

FileTraceSink::FileTraceSink(std::string path, const JsonValue& meta) : path_{std::move(path)} {
  const std::filesystem::path p{path_};
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("trace: cannot open " + path_ + ": " + std::strerror(errno));
  }
  buf_ = encodeTraceHeader(meta);
  buf_ += '\n';
}

FileTraceSink::~FileTraceSink() {
  if (fd_ < 0) return;
  try {
    close();
  } catch (...) {
    // Unwind path: the explicit close() is the one that reports errors.
  }
}

void FileTraceSink::onTraceEvent(const TraceEvent& ev) {
  buf_ += encodeTraceLine(ev);
  buf_ += '\n';
  ++written_;
  if (buf_.size() >= kFlushThreshold) flushBuffer();
}

void FileTraceSink::writeAll(const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd_, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("trace: write failed: " + path_ + ": " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void FileTraceSink::flushBuffer() {
  if (buf_.empty()) return;
  writeAll(buf_.data(), buf_.size());
  buf_.clear();
}

void FileTraceSink::close() {
  if (fd_ < 0) return;
  flushBuffer();
  const int fd = fd_;
  fd_ = -1;
  try {
    fsyncFdOrThrow(fd, path_);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

TraceFile readTraceFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("trace: cannot read " + path);

  TraceFile out;
  std::string line;
  bool sawHeader = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!sawHeader) {
      // The first line must be a valid, CRC-clean header of our schema: a
      // torn or foreign file should fail loudly, not replay as empty.
      try {
        const JsonValue doc = parseJson(line);
        const JsonValue& hdr = doc.at("hdr");
        if (crc32Hex(dumpJsonLine(hdr)) != doc.stringAt("crc")) {
          throw std::runtime_error("header CRC mismatch");
        }
        if (hdr.stringAt("schema") != kTraceSchema) {
          throw std::runtime_error("schema is '" + hdr.stringAt("schema") + "'");
        }
        out.meta = hdr.at("meta");
      } catch (const std::exception& e) {
        throw std::runtime_error("trace: " + path + " is not an " + kTraceSchema + " file: " +
                                 e.what());
      }
      sawHeader = true;
      continue;
    }
    TraceEvent ev;
    if (decodeTraceLine(line, ev)) {
      out.events.push_back(ev);
    } else {
      ++out.corrupt;
    }
  }
  if (!sawHeader) {
    throw std::runtime_error("trace: " + path + " is empty (no " + kTraceSchema + " header)");
  }
  return out;
}

}  // namespace rcsim::obs
