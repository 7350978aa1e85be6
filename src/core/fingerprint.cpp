#include "core/fingerprint.hpp"

#include <cstdio>
#include <type_traits>

namespace rcsim {

namespace {

// Value text: integers, bools and enums as unsigned decimal, doubles at
// full precision, counters as a comma list of their pinned fields, series
// as `v;v;...;`.
template <class T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
void putValue(std::string& out, T v) {
  out += std::to_string(static_cast<std::uint64_t>(v));
}

void putValue(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void putValue(std::string& out, const std::vector<double>& series) {
  for (const double v : series) {
    putValue(out, v);
    out += ';';
  }
}

void putValue(std::string& out, const PacketCounters& c) {
  const char* sep = "";
  forEachField(c, [&](const char*, std::uint64_t n, auto flags) {
    if constexpr (decltype(flags)::fingerprinted) {
      out += sep;
      putValue(out, n);
      sep = ",";
    }
  });
}

template <class T>
void putLine(std::string& out, const char* name, const T& value) {
  out += name;
  out += '=';
  putValue(out, value);
  out += '\n';
}

/// One `name=value` line per fingerprinted field, in table order.
template <class R>
std::string fingerprint(const R& r) {
  std::string out;
  forEachField(r, [&out](const char* name, const auto& value, auto flags, auto&&...) {
    if constexpr (decltype(flags)::fingerprinted) putLine(out, name, value);
  });
  return out;
}

}  // namespace

std::string runResultFingerprint(const RunResult& r) { return fingerprint(r); }
std::string runResultDigest(const RunResult& r) { return fnv1aHexDigest(fingerprint(r)); }

std::string aggregateFingerprint(const Aggregate& a) { return fingerprint(a); }
std::string aggregateDigest(const Aggregate& a) { return fnv1aHexDigest(fingerprint(a)); }

std::string anatomyFingerprint(const obs::AnatomySummary& s) { return fingerprint(s); }
std::string anatomyDigest(const obs::AnatomySummary& s) { return fnv1aHexDigest(fingerprint(s)); }

}  // namespace rcsim
