#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::int32_t Tracer::begin(std::string name, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({std::move(name), now_ns(), 0, parent, request});
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int32_t Tracer::add(std::string name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int32_t parent,
                         std::uint64_t request) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return index;
}

void Tracer::merge(const Tracer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].layer()] += self[i];
  }
  return out;
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
  }
  return out;
}

}  // namespace perfbench
