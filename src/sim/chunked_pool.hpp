#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rcsim {

/// Objects addressed by a 32-bit index. Slots are carved in fixed-size
/// chunks, so a T& keeps its address while the pool grows (growth never
/// moves a live object, and a handler may acquire more slots while it holds
/// one); a released index is reused first, so a warm pool allocates nothing.
/// A slot keeps its last occupant's state until the caller overwrites it.
template <typename T>
class ChunkedPool {
 public:
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  /// A free index: the last one released, else a freshly carved slot.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t i = free_.back();
      free_.pop_back();
      return i;
    }
    if (carved_ == chunks_.size() * kChunkSlots) {
      // Default-initialized: a slot is written when it is first acquired.
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunkSlots));
    }
    return carved_++;
  }

  void release(std::uint32_t i) { free_.push_back(i); }

  T& operator[](std::uint32_t i) {
    assert(i < carved_);
    return chunks_[i >> kChunkShift][i & (kChunkSlots - 1)];
  }

  /// Indices ever handed out; every index below it addresses a slot.
  [[nodiscard]] std::uint32_t carved() const { return carved_; }
  /// Acquired and not yet released.
  [[nodiscard]] std::size_t live() const { return carved_ - free_.size(); }
  /// Slots allocated, rounded up to a chunk: bounded by the peak number of
  /// live slots, never by total churn.
  [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkSlots; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t carved_ = 0;
};

}  // namespace rcsim
