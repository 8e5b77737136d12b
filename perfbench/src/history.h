// Seeded synthetic capture histories for the benchmark.
//
// A history is a recorder event stream -- the exact sequence of
// cpg::Recorder calls a traced run would make -- generated once from
// a seed and replayed into a fresh Recorder on every timed pass, so the
// timed region starts at the Recorder call boundary, where real capture
// cost enters the pipeline. The simulated capture runtime (executor,
// PT simulator, memtrack, perf) is deliberately not involved.
//
// The shape mixes three patterns so every query kind has real work:
//   - barrier rounds: every thread ends each round at one barrier, so
//     later rounds happen-after earlier ones (long slices, many levels);
//   - lock-protected sections: each thread enters two critical
//     sections per round on one of four mutexes, whose pages are
//     ordered by the lock (no races there, but sync edges across
//     threads inside a round);
//   - Zipf-skewed shared pages: compute segments outside the locks read
//     and sometimes write pages drawn from a Zipf distribution over a
//     shared pool, so hot pages have large accessor buckets and
//     concurrent writers -- `races` and `taint` have non-empty answers.
#pragma once

#include <cstdint>
#include <vector>

#include "cpg/recorder.h"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64): identical streams on
/// every platform and standard library for the same seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n), mapped onto ids so the hot items are
/// scattered evenly over the id space rather than being the smallest
/// ids (see the constructor).
class Zipf {
 public:
  Zipf(std::uint64_t n, double s, std::uint64_t seed);
  std::uint64_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint64_t> items_;  ///< rank -> item
};

/// One recorded Recorder call. Page sets live in History::pages as
/// [offset, offset + count) runs so a replay builds each PageSet with
/// one allocation, the way a capture hands over freshly collected sets.
struct Event {
  enum class Kind : std::uint8_t {
    kStart,
    kBranch,
    kRelease,
    kAcquire,
    kEnd,
    kExit,
  };
  Kind kind = Kind::kStart;
  inspector::sync::SyncEventKind reason = inspector::sync::SyncEventKind::kThreadExit;
  std::uint32_t thread = 0;
  inspector::sync::ObjectId object = 0;
  std::uint32_t read_offset = 0, read_count = 0;
  std::uint32_t write_offset = 0, write_count = 0;
  inspector::cpg::BranchRecord branch;
};

struct History {
  std::vector<Event> events;
  std::vector<std::uint64_t> pages;  ///< page-set runs, each sorted
  std::uint64_t node_count = 0;      ///< nodes a replay records
  std::uint64_t shared_pages = 0;
};

/// Generate the event stream of a history of about `nodes` nodes
/// (reached to within one barrier round) from `seed`.
[[nodiscard]] History generate_history(std::uint32_t nodes, std::uint64_t seed);

/// Replay the stream into `recorder` (every thread exits at the end).
void replay(const History& history, inspector::cpg::Recorder& recorder);

}  // namespace perfbench
