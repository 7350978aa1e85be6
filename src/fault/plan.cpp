#include "fault/plan.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rcsim::fault {
namespace {

/// Seconds-to-Time with round-to-nearest nanosecond. Time::seconds
/// truncates, which loses 1 ns whenever toSeconds()*1e9 lands just below
/// the tick count it came from — and parse(format(p)) must restore
/// arbitrary tick counts exactly, not just whole-second ones.
Time secondsExact(double s) { return Time::nanoseconds(std::llround(s * 1e9)); }

/// Shortest decimal rendering that still round-trips the double exactly —
/// plans embedded in artifacts must replay bit-for-bit.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  if (std::strtod(buf, nullptr) != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Same, but for Time fields, in seconds or in 1/unitsPerSecond seconds:
/// round-trip is judged after the nanosecond quantization, so "460" stays
/// "460" even though toSeconds() of the stored tick count is not exactly
/// 460.0.
std::string secs(Time t, double unitsPerSecond = 1.0) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", t.toSeconds() * unitsPerSecond);
  if (secondsExact(std::strtod(buf, nullptr) / unitsPerSecond) != t) {
    std::snprintf(buf, sizeof buf, "%.17g", t.toSeconds() * unitsPerSecond);
  }
  return buf;
}

[[noreturn]] void bad(const std::string& event, const char* why) {
  throw std::invalid_argument("fault-plan: bad event '" + event + "': " + why);
}

/// Any number in a plan: finite and within +-1e9, so every time field
/// (seconds, or milliseconds) stays far inside Time's int64 nanoseconds.
double parseNum(const std::string& s, const std::string& event) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || errno != 0 || end == s.c_str() || *end != '\0') {
    bad(event, "expected a number");
  }
  if (!(std::fabs(v) <= 1e9)) bad(event, "expected a finite number within +-1e9");
  return v;
}

/// A node id or flow index in [0, 1e6].
int parseIndex(const std::string& s, const std::string& event, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || errno != 0 || end == s.c_str() || *end != '\0' || v < 0 || v > 1'000'000L) {
    bad(event, what);
  }
  return static_cast<int>(v);
}

NodeId parseNode(const std::string& s, const std::string& event) {
  if (s == "dst") return kFlowDst;
  return static_cast<NodeId>(parseIndex(s, event, "expected a node id"));
}

double parseRate(const std::string& s, const std::string& event) {
  const double rate = parseNum(s, event);
  if (rate < 0.0 || rate > 1.0) bad(event, "rate must be in [0, 1]");
  return rate;
}

/// A delay >= 0 in seconds, or in 1/unitsPerSecond seconds.
Time parseDelay(const std::string& s, const std::string& event, double unitsPerSecond = 1.0) {
  const Time t = secondsExact(parseNum(s, event) / unitsPerSecond);
  if (t < Time::zero()) bad(event, "a delay must be >= 0");
  return t;
}

FaultKind parseKind(const std::string& s, const std::string& event) {
  for (int k = 0; k <= static_cast<int>(FaultKind::Churn); ++k) {
    if (s == toString(static_cast<FaultKind>(k))) return static_cast<FaultKind>(k);
  }
  bad(event, "unknown kind");
}

/// "path" (flow 0) or "path/<k>" into ev.pathFlow; false for any other target.
bool parsePathTarget(const std::string& s, FaultEvent& ev, const std::string& event) {
  if (s.rfind("path", 0) != 0) return false;
  if (s == "path") {
    ev.pathFlow = 0;
  } else if (s[4] == '/') {
    ev.pathFlow = parseIndex(s.substr(5), event, "expected 'path/<flow index>'");
  } else {
    bad(event, "expected 'path' or 'path/<flow index>'");
  }
  return true;
}

/// "A-B" into (a, b); "*" sets allLinks for the impairment kinds.
void parseEndpoints(const std::string& s, FaultEvent& ev, bool starOk,
                    const std::string& event) {
  if (starOk && s == "*") {
    ev.allLinks = true;
    return;
  }
  const auto dash = s.find('-');
  if (dash == std::string::npos) bad(event, "expected 'A-B' endpoints");
  ev.a = parseNode(s.substr(0, dash), event);
  ev.b = parseNode(s.substr(dash + 1), event);
}

std::string node(NodeId n) { return n == kFlowDst ? "dst" : std::to_string(n); }

std::string link(const FaultEvent& ev) {
  if (ev.pathFlow == 0) return "path";
  if (ev.pathFlow > 0) return "path/" + std::to_string(ev.pathFlow);
  return ev.allLinks ? "*" : node(ev.a) + "-" + node(ev.b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string part;
  std::istringstream in{s};
  while (std::getline(in, part, sep)) out.push_back(part);
  return out;
}

FaultEvent parseEvent(const std::string& text) {
  const auto fields = split(text, ':');
  if (fields.size() < 3) bad(text, "expected '<sec>:<kind>:<args>'");
  FaultEvent ev;
  ev.at = secondsExact(parseNum(fields[0], text));
  if (ev.at < Time::zero()) bad(text, "time must be >= 0 s");
  const std::string& kind = fields[1];
  ev.kind = parseKind(kind, text);
  const auto want = [&](std::size_t n) {
    if (fields.size() != n) bad(text, "wrong number of ':' fields for this kind");
  };
  if (kind == "fail" && parsePathTarget(fields[2], ev, text)) {
    want(std::min<std::size_t>(fields.size(), 4));  // an optional repair delay
    if (fields.size() == 4) ev.repair = parseDelay(fields[3], text);
  } else if (kind == "fail" || kind == "recover") {
    want(3);
    parseEndpoints(fields[2], ev, /*starOk=*/false, text);
  } else if (kind == "crash" || kind == "restart") {
    want(3);
    ev.a = parseNode(fields[2], text);
  } else if (kind == "loss" || kind == "corrupt" || kind == "ctrl-loss" || kind == "ctrl-dup") {
    want(4);
    parseEndpoints(fields[2], ev, /*starOk=*/true, text);
    ev.rate = parseRate(fields[3], text);
  } else if (kind == "reorder") {
    want(5);
    parseEndpoints(fields[2], ev, /*starOk=*/true, text);
    ev.rate = parseRate(fields[3], text);
    ev.jitter = parseDelay(fields[4], text, 1000.0);
  } else if (kind == "detect" || kind == "ctrl-delay") {
    want(4);
    parseEndpoints(fields[2], ev, /*starOk=*/kind == "ctrl-delay", text);
    (kind == "detect" ? ev.detect : ev.jitter) = parseDelay(fields[3], text, 1000.0);
  } else if (kind == "flapburst") {
    want(5);
    parseEndpoints(fields[2], ev, /*starOk=*/false, text);
    const double n = parseNum(fields[3], text);
    if (n < 1.0 || n > 1000.0 || n != static_cast<double>(static_cast<int>(n))) {
      bad(text, "count must be an integer in [1, 1000]");
    }
    ev.count = static_cast<int>(n);
    ev.period = secondsExact(parseNum(fields[4], text));
    if (ev.period <= Time::zero()) bad(text, "period must be > 0 s");
  } else if (kind == "churn") {
    want(5);
    // Bounded so every exponential draw stays far inside Time's range.
    ev.mtbf = parseNum(fields[2], text);
    if (!(ev.mtbf > 0.0 && ev.mtbf <= 1e6)) bad(text, "mtbf must be in (0, 1e6] s");
    ev.mttr = parseNum(fields[3], text);
    if (!(ev.mttr > 0.0 && ev.mttr <= 1e6)) bad(text, "mttr must be in (0, 1e6] s");
    ev.stop = secondsExact(parseNum(fields[4], text));
    if (ev.stop < ev.at) bad(text, "stop must be >= the start time");
  } else {  // partition, heal
    want(3);
    for (const auto& n : split(fields[2], ',')) ev.group.push_back(parseNode(n, text));
    if (ev.group.empty()) bad(text, "expected a comma-separated node group");
  }
  return ev;
}

}  // namespace

std::string FaultPlan::format() const {
  std::string out;
  for (const auto& ev : events) {
    if (!out.empty()) out += ';';
    out += secs(ev.at);
    out += ':';
    out += toString(ev.kind);
    out += ':';
    switch (ev.kind) {
      case FaultKind::LinkFail:
      case FaultKind::LinkRecover:
        out += link(ev);
        if (ev.pathFlow != kNoPathFlow && ev.repair < Time::infinity()) {
          out += ':' + secs(ev.repair);
        }
        break;
      case FaultKind::NodeCrash:
      case FaultKind::NodeRestart:
        out += node(ev.a);
        break;
      case FaultKind::LinkLoss:
      case FaultKind::LinkCorrupt:
      case FaultKind::CtrlLoss:
      case FaultKind::CtrlDup:
        out += link(ev) + ':' + num(ev.rate);
        break;
      case FaultKind::LinkReorder:
        out += link(ev) + ':' + num(ev.rate) + ':' + secs(ev.jitter, 1000.0);
        break;
      case FaultKind::DetectDelay:
        out += link(ev) + ':' + secs(ev.detect, 1000.0);
        break;
      case FaultKind::CtrlDelay:
        out += link(ev) + ':' + secs(ev.jitter, 1000.0);
        break;
      case FaultKind::FlapBurst:
        out += link(ev) + ':' + std::to_string(ev.count) + ':' + secs(ev.period);
        break;
      case FaultKind::Churn:
        out += num(ev.mtbf) + ':' + num(ev.mttr) + ':' + secs(ev.stop);
        break;
      case FaultKind::Partition:
      case FaultKind::Heal:
        for (std::size_t i = 0; i < ev.group.size(); ++i) {
          if (i > 0) out += ',';
          out += node(ev.group[i]);
        }
        break;
    }
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  for (const auto& part : split(text, ';')) {
    if (part.empty()) continue;  // tolerate trailing ';'
    plan.events.push_back(parseEvent(part));
  }
  return plan;
}

}  // namespace rcsim::fault
