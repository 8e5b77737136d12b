#include "vclock/vector_clock.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace inspector::vclock {

void VectorClock::tick(std::size_t tid) {
  if (tid >= c_.size()) c_.resize(tid + 1, 0);
  ++c_[tid];
}

void VectorClock::merge(const VectorClock& other) {
  if (other.c_.size() > c_.size()) c_.resize(other.c_.size(), 0);
  for (std::size_t i = 0; i < other.c_.size(); ++i) {
    c_[i] = std::max(c_[i], other.c_[i]);
  }
}

Order VectorClock::compare(const VectorClock& other) const noexcept {
  const std::size_t n = std::max(c_.size(), other.c_.size());
  bool less = false;   // some component strictly smaller
  bool greater = false;  // some component strictly greater
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = get(i);
    const std::uint64_t b = other.get(i);
    if (a < b) less = true;
    if (a > b) greater = true;
  }
  if (less && greater) return Order::kConcurrent;
  if (less) return Order::kBefore;
  if (greater) return Order::kAfter;
  return Order::kEqual;
}

std::string VectorClock::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const VectorClock& vc) {
  os << '[';
  const auto& c = vc.components();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i != 0) os << ',';
    os << c[i];
  }
  return os << ']';
}

std::ostream& operator<<(std::ostream& os, Order order) {
  switch (order) {
    case Order::kEqual: return os << "equal";
    case Order::kBefore: return os << "before";
    case Order::kAfter: return os << "after";
    case Order::kConcurrent: return os << "concurrent";
  }
  return os << "?";
}

}  // namespace inspector::vclock
