#include "fuzz/corpus.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/digest.hpp"
#include "core/options.hpp"

namespace rcsim::fuzz {
namespace {

/// Strip ASCII whitespace from both ends.
std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

}  // namespace

std::string formatScenarioFile(const ScenarioDoc& doc) {
  std::ostringstream os;
  os << kScenarioMagic << '\n';
  os << "# expect: " << toString(doc.expect);
  if (!doc.expectDetail.empty()) os << ' ' << doc.expectDetail;
  os << '\n';
  if (!doc.note.empty()) os << "# note: " << doc.note << '\n';
  for (const auto& opt : describeOptions(doc.config)) os << opt << '\n';
  return os.str();
}

ScenarioDoc parseScenarioFile(const std::string& text) {
  std::istringstream is{text};
  std::string line;
  if (!std::getline(is, line) || trim(line) != kScenarioMagic) {
    throw std::invalid_argument(std::string{"scenario file must start with '"} +
                                kScenarioMagic + "'");
  }
  ScenarioDoc doc;
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t.front() == '#') {
      const std::string body = trim(t.substr(1));
      if (body.rfind("expect:", 0) == 0) {
        const std::string value = trim(body.substr(7));
        const auto space = value.find(' ');
        doc.expect = runStatusFromString(value.substr(0, space));
        if (space != std::string::npos) doc.expectDetail = trim(value.substr(space + 1));
      } else if (body.rfind("note:", 0) == 0) {
        doc.note = trim(body.substr(5));
      }
      // Unknown comments are allowed: future metadata stays replayable.
      continue;
    }
    applyOptionString(doc.config, t);
  }
  return doc;
}

ScenarioDoc loadScenarioFile(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parseScenarioFile(buf.str());
}

void saveScenarioFile(const std::string& path, const ScenarioDoc& doc) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write scenario file: " + path);
  out << formatScenarioFile(doc);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace rcsim::fuzz
