// In-memory spans for the traced benchmark run.
//
// The benchmark records a span around each of its own calls into a
// module's public functions; nothing inside the program is
// instrumented. A span's layer is its name up to the first '.'
// ("cpg.finalize" -> "cpg"), matching the module directories under
// src/. Spans are kept in memory while the workload runs and written
// out once it ends, so recording costs two clock reads and a push.
//
// A Tracer is single-threaded: each client thread owns one, and
// merge() concatenates them afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index of the causing span, -1 = root
  std::uint64_t request = 0;   ///< spans of one request share this id

  [[nodiscard]] std::string layer() const {
    return name.substr(0, name.find('.'));
  }
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span now; returns its index (or -1 when disabled).
  std::int32_t begin(std::string name, std::uint64_t request = 0);
  void end(std::int32_t index);

  /// Record a finished span with explicit times (child spans whose
  /// time was measured elsewhere, e.g. in-process engine time under a
  /// client round trip).
  std::int32_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t request = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Append another tracer's spans, re-basing their parent indices.
  void merge(const Tracer& other);

  /// Write every span as one JSON array; false if the file failed.
  [[nodiscard]] bool write_json(const std::string& path) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request = 0)
        : tracer_(tracer), index_(tracer.begin(std::move(name), request)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it (children of one span may
/// overlap when they ran concurrently).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Summed self time per layer, in nanoseconds.
[[nodiscard]] std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans);

/// Durations in microseconds of every span named `name`.
[[nodiscard]] std::vector<double> durations_us(const std::vector<Span>& spans,
                                               const std::string& name);

}  // namespace perfbench
