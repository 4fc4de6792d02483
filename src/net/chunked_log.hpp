// An append-only log stored in fixed-size blocks.
//
// Capture logs grow one record per packet for the whole run, so a
// `std::vector` would copy every record each time its capacity doubles and
// leave up to half its capacity unused at the end. A `ChunkedLog` allocates
// one block of `kBlock` records when the last one fills: appending never
// moves a record, and at most one partly filled block is unused. Records
// are read by index or in append order, and copied out once into a
// contiguous vector for consumers that edit them (CorrelatorInput).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace athena::net {

template <typename T>
class ChunkedLog {
 public:
  /// Records per block: a power of two, so indexing is a shift and a mask.
  static constexpr std::size_t kBlock = 32;

  /// Walks the records in append order (range-for).
  class const_iterator {
   public:
    const_iterator(const ChunkedLog* log, std::size_t i) : log_(log), i_(i) {}

    const T& operator*() const { return (*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const ChunkedLog* log_;
    std::size_t i_;
  };

  void push_back(const T& record) {
    if (size_ == blocks_.size() * kBlock) blocks_.push_back(std::make_unique<T[]>(kBlock));
    blocks_[size_ / kBlock][size_ % kBlock] = record;
    ++size_;
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Records the allocated blocks can hold; `capacity() - size() < kBlock`.
  [[nodiscard]] std::size_t capacity() const { return blocks_.size() * kBlock; }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  /// The records in append order, as one contiguous vector sized exactly.
  [[nodiscard]] std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t n = b + 1 == blocks_.size() ? size_ - b * kBlock : kBlock;
      out.insert(out.end(), blocks_[b].get(), blocks_[b].get() + n);
    }
    return out;
  }

  /// Drops every record and releases the blocks.
  void Clear() {
    blocks_.clear();
    size_ = 0;
  }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t size_ = 0;
};

}  // namespace athena::net
