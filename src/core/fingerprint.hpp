#pragma once

#include <string>

#include "core/digest.hpp"
#include "core/runner.hpp"

namespace rcsim {

// fnv1aHexDigest lives in core/digest.hpp (re-exported by the include
// above): the same hash the result digests use, shared with the journal's
// config digests and the structured trace digests.

/// Canonical text rendering of the RunResult fields its table marks
/// kFingerprinted (core/experiment.hpp; doubles at full precision), one
/// `name=value` line each in table order, for byte-exact determinism
/// comparisons across engine refactors. Two runs are equivalent iff their
/// fingerprints match.
[[nodiscard]] std::string runResultFingerprint(const RunResult& r);

/// FNV-1a 64-bit digest of the fingerprint, as 16 lowercase hex chars —
/// compact enough to check golden values into a test.
[[nodiscard]] std::string runResultDigest(const RunResult& r);

/// Same idea for an Aggregate: every field of its table (core/runner.hpp),
/// both series included, at full precision. Lets a test assert that two
/// aggregation paths (e.g. a serial runScenario loop and the flattened
/// SweepExecutor queue) produce bit-identical statistics.
[[nodiscard]] std::string aggregateFingerprint(const Aggregate& a);
[[nodiscard]] std::string aggregateDigest(const Aggregate& a);

/// Same idea for a convergence-anatomy rollup (obs/anatomy.hpp). Kept
/// separate from runResultFingerprint — whose golden digests predate the
/// analyzer — so the serial == pooled convergence check can be exact
/// without disturbing a single pinned value.
[[nodiscard]] std::string anatomyFingerprint(const obs::AnatomySummary& s);
[[nodiscard]] std::string anatomyDigest(const obs::AnatomySummary& s);

}  // namespace rcsim
