// ValueRow: the select-list values of one result row, the first inline.
//
// A temporal aggregate's answer has one row per constant interval, up to
// 2n - 1 rows for n tuples, and most queries select a single aggregate.
// Holding the first value inside the row means a one-column row costs no
// heap allocation at all; values from the second on live in one heap
// block sized by reserve() (or grown by doubling on push_back).
//
// The block is managed by hand, not held in a std::vector, because the
// row's size is the cost: a vector plus an "is the first value set" flag
// makes the row 16 bytes larger (88 in place of 72 with its period), and
// on a 4-vCPU KVM guest that variant doubled row assembly, 2.4-3.8 ->
// 5.1-5.9 ms for ~123K single-aggregate rows and 11-14 -> 20-23 ms for
// ~865K rows on the column route (EXPERIMENTS.md, "Inline result rows").

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

#include "temporal/value.h"

namespace tagg {

class ValueRow {
  template <typename Row, typename V>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iter() = default;
    Iter(Row* row, size_t i) : row_(row), i_(i) {}

    reference operator*() const { return (*row_)[i_]; }
    pointer operator->() const { return &(*row_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter before = *this;
      ++i_;
      return before;
    }
    bool operator==(const Iter& other) const {
      return row_ == other.row_ && i_ == other.i_;
    }
    bool operator!=(const Iter& other) const { return !(*this == other); }

   private:
    Row* row_ = nullptr;
    size_t i_ = 0;
  };

 public:
  using value_type = Value;
  using size_type = size_t;
  using iterator = Iter<ValueRow, Value>;
  using const_iterator = Iter<const ValueRow, const Value>;

  ValueRow() = default;
  ValueRow(const ValueRow& other) : first_(other.first_) {
    if (other.size_ > 1) {
      rest_ = Allocate(other.size_ - 1);
      rest_capacity_ = other.size_ - 1;
      try {
        std::uninitialized_copy_n(other.rest_, other.size_ - 1, rest_);
      } catch (...) {
        ::operator delete(rest_);
        throw;
      }
    }
    size_ = other.size_;
  }
  ValueRow(ValueRow&& other) noexcept
      : first_(std::move(other.first_)),
        rest_(std::exchange(other.rest_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        rest_capacity_(std::exchange(other.rest_capacity_, 0)) {}
  ValueRow& operator=(const ValueRow& other) {
    if (this != &other) {
      ValueRow copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  ValueRow& operator=(ValueRow&& other) noexcept {
    if (this != &other) {
      Release();
      first_ = std::move(other.first_);
      rest_ = std::exchange(other.rest_, nullptr);
      size_ = std::exchange(other.size_, 0);
      rest_capacity_ = std::exchange(other.rest_capacity_, 0);
    }
    return *this;
  }
  ~ValueRow() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value& operator[](size_t i) { return i == 0 ? first_ : rest_[i - 1]; }
  const Value& operator[](size_t i) const {
    return i == 0 ? first_ : rest_[i - 1];
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Makes room for `n` values; only values past the first take memory.
  void reserve(size_t n) {
    if (n > 1 && n - 1 > rest_capacity_) Regrow(n - 1);
  }

  void push_back(Value&& v) {
    if (size_ == 0) {
      first_ = std::move(v);
    } else if (size_ - 1 < rest_capacity_) {
      ::new (static_cast<void*>(rest_ + (size_ - 1))) Value(std::move(v));
    } else {
      GrowAndPush(std::move(v));
      return;
    }
    ++size_;
  }
  /// Copies first, so pushing one of the row's own values is safe.
  void push_back(const Value& v) { push_back(Value(v)); }

  friend bool operator==(const ValueRow& a, const ValueRow& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const ValueRow& a, const ValueRow& b) {
    return !(a == b);
  }

 private:
  static Value* Allocate(size_t n) {
    return static_cast<Value*>(::operator new(n * sizeof(Value)));
  }

  /// Takes `v` by value before regrowing, so it may be one of the row's
  /// own values.
  void GrowAndPush(Value v) {
    Regrow(rest_capacity_ == 0 ? 1 : 2 * static_cast<size_t>(rest_capacity_));
    ::new (static_cast<void*>(rest_ + (size_ - 1))) Value(std::move(v));
    ++size_;
  }

  /// Moves the values past the first into a block of `capacity` slots.
  void Regrow(size_t capacity) {
    Value* grown = Allocate(capacity);
    if (size_ > 1) {
      std::uninitialized_move_n(rest_, size_ - 1, grown);
      std::destroy_n(rest_, size_ - 1);
    }
    ::operator delete(rest_);
    rest_ = grown;
    rest_capacity_ = static_cast<uint32_t>(capacity);
  }

  void Release() {
    if (size_ > 1) std::destroy_n(rest_, size_ - 1);
    ::operator delete(rest_);
    rest_ = nullptr;
    rest_capacity_ = 0;
    size_ = 0;
  }

  // 56 bytes: a result row has a handful of columns, so 32-bit counts.
  Value first_;              // element 0 when size_ > 0
  Value* rest_ = nullptr;    // elements 1 .. size_ - 1
  uint32_t size_ = 0;
  uint32_t rest_capacity_ = 0;
};

}  // namespace tagg
