#pragma once

// Reproducer banking: the rcsim-scenario-v1 file format.
//
// A scenario file is a self-contained, replayable description of one run:
// a header magic, optional `# key: value` metadata comments, then the
// canonical key=value option lines (core/options.hpp). The fuzzer banks
// minimized findings in this form (tests/fuzz_corpus/*.scenario) and the
// table-driven corpus test replays every banked file, asserting the
// recorded expectation still holds — fixed bugs stay fixed, known-bad
// scenarios stay flagged.

#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "fuzz/harness.hpp"

namespace rcsim::fuzz {

inline constexpr const char* kScenarioMagic = "# rcsim-scenario-v1";

/// Parsed scenario file: the config plus the banked expectation.
struct ScenarioDoc {
  ScenarioConfig config{};
  /// What replaying the scenario must produce (the `# expect:` comment).
  RunStatus expect = RunStatus::Clean;
  /// Substring the outcome detail must contain ("" = don't care) — e.g.
  /// the violated invariant's name, so a reproducer can't silently start
  /// tripping a *different* invariant and still pass.
  std::string expectDetail;
  /// Free-form `# note:` line carried through for triage context.
  std::string note;
};

/// Render a scenario file: magic, `# expect:` / `# note:` metadata, then
/// the canonical option lines. parseScenarioFile(formatScenarioFile(d))
/// reproduces the document exactly.
[[nodiscard]] std::string formatScenarioFile(const ScenarioDoc& doc);

/// Parse scenario-file text. Throws std::invalid_argument on a missing
/// magic, an unknown `# expect:` status, or any malformed option line.
[[nodiscard]] ScenarioDoc parseScenarioFile(const std::string& text);

/// Load + parse one file; throws std::runtime_error if unreadable.
[[nodiscard]] ScenarioDoc loadScenarioFile(const std::string& path);

/// Write a scenario doc to `path` (throws std::runtime_error on failure).
void saveScenarioFile(const std::string& path, const ScenarioDoc& doc);

}  // namespace rcsim::fuzz
