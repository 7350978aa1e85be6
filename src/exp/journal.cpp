#include "exp/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/durable_io.hpp"
#include "core/fingerprint.hpp"
#include "exp/spec.hpp"

namespace rcsim::exp {

namespace {

/// A field name in key form: "dataAfterFailure" -> "data_after_failure".
std::string jsonKey(std::string_view name) {
  std::string key;
  for (const char c : name) {
    if (c >= 'A' && c <= 'Z') {
      key += '_';
      key += static_cast<char>(c - 'A' + 'a');
    } else {
      key += c;
    }
  }
  return key;
}

template <class T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
JsonValue toJsonValue(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::makeBool(v);
  } else if constexpr (std::is_enum_v<T>) {
    return JsonValue::makeNumber(static_cast<std::underlying_type_t<T>>(v));
  } else {
    return JsonValue::makeNumber(static_cast<double>(v));
  }
}

template <class T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
void fromJsonValue(const JsonValue& j, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = j.boolean;
  } else if constexpr (std::is_enum_v<T>) {
    out = static_cast<T>(static_cast<std::underlying_type_t<T>>(j.number));
  } else {
    out = static_cast<T>(j.number);
  }
}

JsonValue toJsonValue(const std::string& s) { return JsonValue::makeString(s); }
void fromJsonValue(const JsonValue& j, std::string& out) { out = j.str; }

JsonValue toJsonValue(const std::vector<double>& series) {
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(series.size());
  for (const double v : series) arr.array.push_back(JsonValue::makeNumber(v));
  return arr;
}

void fromJsonValue(const JsonValue& j, std::vector<double>& out) {
  out.clear();
  out.reserve(j.array.size());
  for (const auto& e : j.array) out.push_back(e.number);
}

JsonValue toJsonValue(const PacketCounters& c) {
  JsonValue arr = JsonValue::makeArray();
  forEachField(c, [&arr](const char*, std::uint64_t n, auto) {
    arr.array.push_back(toJsonValue(n));
  });
  return arr;
}

void fromJsonValue(const JsonValue& j, PacketCounters& c) {
  std::size_t fields = 0;
  forEachField(c, [&fields](auto&&...) { ++fields; });
  if (j.kind != JsonValue::Kind::Array || j.array.size() != fields) {
    throw std::runtime_error("journal: counters array must have " + std::to_string(fields) +
                             " elements");
  }
  std::size_t i = 0;
  forEachField(c, [&](const char*, std::uint64_t& n, auto) { fromJsonValue(j.array[i++], n); });
}

// A nested result struct (RunResult::anatomy) is an object of its own fields.
template <class R>
  requires std::is_class_v<R>
JsonValue toJsonValue(const R& r) {
  return fieldsToJson(r);
}

template <class R>
  requires std::is_class_v<R>
void fromJsonValue(const JsonValue& j, R& out) {
  out = fieldsFromJson<R>(j);
}

std::uint64_t u64At(const JsonValue& o, const char* key) {
  return static_cast<std::uint64_t>(o.numberAt(key));
}

}  // namespace

template <class R>
JsonValue fieldsToJson(const R& r) {
  JsonValue o = JsonValue::makeObject();
  forEachField(r, [&o](const char* name, const auto& value, auto, auto&&...) {
    o.object[jsonKey(name)] = toJsonValue(value);
  });
  return o;
}

template <class R>
R fieldsFromJson(const JsonValue& v) {
  R r;
  forEachField(r, [&v](const char* name, auto& value, auto flags, auto&&...) {
    const std::string key = jsonKey(name);
    if (decltype(flags)::optional && !v.has(key)) return;
    fromJsonValue(v.at(key), value);
  });
  return r;
}

template JsonValue fieldsToJson(const RunResult&);
template JsonValue fieldsToJson(const obs::AnatomySummary&);
template JsonValue fieldsToJson(const Aggregate&);
template JsonValue fieldsToJson(const CellStats&);
template RunResult fieldsFromJson<RunResult>(const JsonValue&);
template obs::AnatomySummary fieldsFromJson<obs::AnatomySummary>(const JsonValue&);

std::string encodeJournalLine(const JournalRecord& rec) {
  JsonValue body = JsonValue::makeObject();
  body.object["experiment"] = JsonValue::makeString(rec.experiment);
  body.object["cell"] = JsonValue::makeString(rec.cell);
  body.object["config"] = JsonValue::makeString(rec.configDigest);
  body.object["seed"] = JsonValue::makeNumber(static_cast<double>(rec.seed));
  body.object["attempt"] = JsonValue::makeNumber(rec.attempt);
  body.object["ok"] = JsonValue::makeBool(rec.ok);
  if (rec.ok) {
    // The digest is belt-and-braces on top of the CRC: the decoder
    // re-fingerprints the result it rebuilt and compares, so a record whose
    // fingerprinted fields decode to other values is rejected. It says
    // nothing of the unpinned fields; that the JSON covers every field is
    // the field table's job, and the round-trip tests compare whole records.
    body.object["digest"] = JsonValue::makeString(runResultDigest(rec.result));
    body.object["result"] = fieldsToJson(rec.result);
  } else {
    JsonValue errs = JsonValue::makeArray();
    for (const auto& e : rec.errors) errs.array.push_back(JsonValue::makeString(e));
    body.object["errors"] = std::move(errs);
  }
  const std::string canonical = dumpJsonLine(body);

  JsonValue line = JsonValue::makeObject();
  line.object["crc"] = JsonValue::makeString(crc32Hex(canonical));
  line.object["rec"] = std::move(body);
  return dumpJsonLine(line);
}

bool decodeJournalLine(const std::string& line, JournalRecord& out) {
  try {
    const JsonValue doc = parseJson(line);
    const JsonValue& rec = doc.at("rec");
    // Re-serializing the parsed record reproduces the writer's canonical
    // bytes exactly (numbers are shortest-round-trip, keys are sorted),
    // so the CRC check needs no raw-substring surgery on the line.
    if (crc32Hex(dumpJsonLine(rec)) != doc.stringAt("crc")) return false;
    out = JournalRecord{};
    out.experiment = rec.stringAt("experiment");
    out.cell = rec.stringAt("cell");
    out.configDigest = rec.stringAt("config");
    out.seed = u64At(rec, "seed");
    out.attempt = static_cast<int>(rec.numberAt("attempt"));
    out.ok = rec.at("ok").boolean;
    if (out.ok) {
      out.result = fieldsFromJson<RunResult>(rec.at("result"));
      if (runResultDigest(out.result) != rec.stringAt("digest")) return false;
    } else {
      for (const auto& e : rec.at("errors").array) out.errors.push_back(e.str);
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

JournalWriter::JournalWriter(const std::string& dir) {
  std::filesystem::create_directories(dir);
  fsyncPath(dir);
  path_ = (std::filesystem::path{dir} / kJournalFileName).string();
  // O_RDWR (not O_WRONLY): the torn-tail check below preads the last byte,
  // which a write-only descriptor refuses with EBADF.
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: cannot open " + path_ + ": " + std::strerror(errno));
  }
  // A SIGKILL mid-append can leave a torn, unterminated tail. Terminate it
  // now so the next record starts on a fresh line; the torn record itself
  // fails its CRC on read and only that replica re-runs.
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size > 0) {
    char last = '\n';
    if (::pread(fd_, &last, 1, size - 1) == 1 && last != '\n') {
      if (::write(fd_, "\n", 1) != 1) {
        const int err = errno;
        ::close(fd_);
        throw std::runtime_error("journal: cannot repair " + path_ + ": " +
                                 std::strerror(err));
      }
    }
  }
  fsyncParentDir(path_);
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalRecord& rec) {
  const std::string line = encodeJournalLine(rec) + "\n";
  std::lock_guard lk{mu_};
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("journal: append failed: " + path_ + ": " +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  fsyncFdOrThrow(fd_, path_);
}

std::vector<JournalRecord> readJournal(const std::string& dir, JournalReadStats* stats) {
  std::vector<JournalRecord> out;
  JournalReadStats local;
  const std::filesystem::path path = std::filesystem::path{dir} / kJournalFileName;
  std::ifstream in{path, std::ios::binary};
  if (in) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      JournalRecord rec;
      if (decodeJournalLine(line, rec)) {
        ++local.records;
        out.push_back(std::move(rec));
      } else {
        ++local.corrupt;
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

void JournalIndex::add(const JournalRecord& rec) {
  if (!rec.ok) return;
  std::string key = rec.experiment;
  key += '\x1f';
  key += rec.cell;
  key += '\x1f';
  key += rec.configDigest;
  key += '\x1f';
  key += std::to_string(rec.seed);
  map_[std::move(key)] = rec.result;
}

JournalIndex JournalIndex::load(const std::string& dir, JournalReadStats* stats) {
  JournalIndex idx;
  for (const auto& rec : readJournal(dir, stats)) idx.add(rec);
  return idx;
}

const RunResult* JournalIndex::find(const std::string& experiment, const std::string& cell,
                                    const std::string& configDigest, std::uint64_t seed) const {
  std::string key = experiment;
  key += '\x1f';
  key += cell;
  key += '\x1f';
  key += configDigest;
  key += '\x1f';
  key += std::to_string(seed);
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

}  // namespace rcsim::exp
