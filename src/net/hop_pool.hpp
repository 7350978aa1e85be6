#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/types.hpp"

namespace rcsim {

/// Fixed-stride hop records. A span is a hop count followed by the first
/// stride-1 node ids the packet visited. Spans are addressed by index only,
/// so the backing array may reallocate; a released span is reused first.
class HopPool {
 public:
  /// A fresh, empty span with room for `entries` node ids. A wider request
  /// than the current stride re-lays every span out at the new stride.
  std::uint32_t acquire(std::uint32_t entries) {
    if (entries + 1 > stride_) restride(entries + 1);
    std::uint32_t span = spans_;
    if (!free_.empty()) {
      span = free_.back();
      free_.pop_back();
    } else {
      ++spans_;
      cells_.resize(static_cast<std::size_t>(spans_) * stride_);
    }
    cells_[offset(span)] = 0;
    return span;
  }

  void release(std::uint32_t span) { free_.push_back(span); }

  /// Count a visit of `node`; the id is kept while the span has room.
  void record(std::uint32_t span, NodeId node) {
    NodeId* s = &cells_[offset(span)];
    if (static_cast<std::uint32_t>(s[0]) + 1 < stride_) s[1 + s[0]] = node;
    ++s[0];
  }

  /// Visits counted, kept ids or not.
  [[nodiscard]] std::uint32_t count(std::uint32_t span) const {
    return static_cast<std::uint32_t>(cells_[offset(span)]);
  }

  /// The node ids kept, in visit order.
  [[nodiscard]] std::span<const NodeId> kept(std::uint32_t span) const {
    const NodeId* s = &cells_[offset(span)];
    return {s + 1, std::min<std::size_t>(static_cast<std::size_t>(s[0]), stride_ - 1)};
  }

 private:
  [[nodiscard]] std::size_t offset(std::uint32_t span) const {
    return static_cast<std::size_t>(span) * stride_;
  }

  void restride(std::uint32_t stride) {
    std::vector<NodeId> cells(static_cast<std::size_t>(spans_) * stride);
    for (std::uint32_t i = 0; i < spans_; ++i) {
      std::copy_n(&cells_[offset(i)], stride_, &cells[static_cast<std::size_t>(i) * stride]);
    }
    cells_ = std::move(cells);
    stride_ = stride;
  }

  std::vector<NodeId> cells_;
  std::vector<std::uint32_t> free_;
  std::uint32_t spans_ = 0;
  std::uint32_t stride_ = 0;
};

}  // namespace rcsim
