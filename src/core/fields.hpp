#pragma once

// Field tables. Each result struct (PacketCounters, obs::AnatomySummary,
// RunResult, Aggregate, exp::CellStats) names its members once, in one
// forEachField beside the struct:
//
//   template <FieldsOf<RunResult> R, class V> void forEachField(R& r, V&& v);
//
// calls v("camelName", r.member, flags) once per member, in fingerprint
// order, for a const or a mutable struct. Every encoder and fold is derived
// from that list: the fingerprint text (core/fingerprint.cpp), the journal
// and artifact JSON (exp/journal.cpp, whose keys are the names in
// snake_case), AnatomySummary::operator+=, and the replica folds of
// Aggregate and CellStats, whose rows carry one more argument: the
// projection from a RunResult that the fold averages or sums.

#include <concepts>
#include <type_traits>

namespace rcsim {

/// A field's flags, as a type so generic code branches with if constexpr
/// and never instantiates a writer for a type it does not write.
template <bool Fingerprinted, bool Optional = false>
struct FieldFlags {
  static constexpr bool fingerprinted = Fingerprinted;
  static constexpr bool optional = Optional;
};

/// Written into the struct's fingerprint text, so into every pinned digest.
inline constexpr FieldFlags<true> kFingerprinted{};
/// Journaled and written to artifacts, but outside the fingerprint.
inline constexpr FieldFlags<false> kUnpinned{};
/// Outside the fingerprint, and a JSON record without the key decodes to
/// the member's default; any other missing key rejects the record.
inline constexpr FieldFlags<false, true> kOptional{};

/// `R` is `T` or `const T`: what a forEachField for `T` accepts.
template <class R, class T>
concept FieldsOf = std::same_as<std::remove_const_t<R>, T>;

}  // namespace rcsim
