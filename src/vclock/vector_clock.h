// Vector clocks for deriving the happens-before partial order between
// sub-computations (INSPECTOR §IV-B, Mattern '89).
//
// Each thread carries a VectorClock; synchronization-object clocks act as
// the propagation medium between a releasing and an acquiring thread
// (Algorithm 2: onSynchronization).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace inspector::vclock {

/// Result of comparing two vector clocks under the happens-before partial
/// order.
enum class Order {
  kEqual,       ///< identical clocks
  kBefore,      ///< lhs happens-before rhs
  kAfter,       ///< rhs happens-before lhs
  kConcurrent,  ///< neither ordered: concurrent sub-computations
};

/// A fixed-width vector clock over thread ids [0, size).
///
/// Grows on demand when merged with a wider clock so that workloads that
/// spawn threads dynamically (e.g. kmeans' convergence loop) keep correct
/// causality without pre-declaring the thread count.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t num_threads) : c_(num_threads, 0) {}

  /// Number of thread slots tracked.
  [[nodiscard]] std::size_t size() const noexcept { return c_.size(); }

  /// Component for thread `tid`; zero when the slot does not exist yet.
  [[nodiscard]] std::uint64_t get(std::size_t tid) const noexcept {
    return tid < c_.size() ? c_[tid] : 0;
  }

  /// Set component `tid` to `value`, growing the clock if necessary.
  /// Inline: file decoders set every component of every node's clock.
  void set(std::size_t tid, std::uint64_t value) {
    if (tid >= c_.size()) c_.resize(tid + 1, 0);
    c_[tid] = value;
  }

  /// Increment component `tid` by one (local logical tick).
  void tick(std::size_t tid);

  /// Component-wise maximum with `other` (release→acquire propagation).
  void merge(const VectorClock& other);

  /// Compare under the standard vector-clock partial order.
  [[nodiscard]] Order compare(const VectorClock& other) const noexcept;

  /// True iff *this happens-before `other` (strictly).
  [[nodiscard]] bool happens_before(const VectorClock& other) const noexcept {
    return compare(other) == Order::kBefore;
  }

  /// True iff neither clock is ordered before the other.
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const noexcept {
    return compare(other) == Order::kConcurrent;
  }

  bool operator==(const VectorClock& other) const noexcept {
    return compare(other) == Order::kEqual;
  }

  /// Raw components (for serialization).
  [[nodiscard]] const std::vector<std::uint64_t>& components() const noexcept {
    return c_;
  }

  /// Human-readable form, e.g. "[2,0,1]".
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::uint64_t> c_;
};

std::ostream& operator<<(std::ostream& os, const VectorClock& vc);
std::ostream& operator<<(std::ostream& os, Order order);

}  // namespace inspector::vclock
