#include "history.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

using inspector::PageSet;
using inspector::sync::ObjectKind;
using inspector::sync::SyncEventKind;
using inspector::sync::make_object_id;

Zipf::Zipf(std::uint64_t n, double s, std::uint64_t seed)
    : cdf_(n), items_(n) {
  double total = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  // Rank r maps to item (offset + r * stride) mod n with a stride near
  // n / golden ratio, coprime to n: every prefix of the ranking is
  // spread evenly over the id space, wherever the seeded offset puts
  // it. A random permutation would let one seed put all its hottest
  // items early in the history and another put them late -- and a
  // slice's cost depends on where its anchor sits.
  std::uint64_t stride = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(n) * 0.6180339887));
  while (std::gcd(stride, n) != 1) ++stride;
  const std::uint64_t offset = Rng(seed).below(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    items_[r] = (offset + r * stride) % n;
  }
}

std::uint64_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return items_[rank];
}

namespace {

constexpr std::uint32_t kThreads = 8;
constexpr std::uint32_t kLocks = 4;
/// Critical sections per thread per barrier round.
constexpr std::uint32_t kSections = 2;
/// Skew of the shared pages' popularity, and the pool size: one shared
/// page per kNodesPerSharedPage nodes (at least 64).
constexpr double kPageSkew = 0.8;
constexpr std::uint32_t kNodesPerSharedPage = 24;
/// Probability a compute segment also writes one shared page.
constexpr double kSharedWriteP = 0.25;

Event make_event(Event::Kind kind, std::uint32_t thread,
                 inspector::sync::ObjectId object = 0,
                 SyncEventKind reason = SyncEventKind::kThreadExit) {
  Event e;
  e.kind = kind;
  e.thread = thread;
  e.object = object;
  e.reason = reason;
  return e;
}

class Builder {
 public:
  Builder(std::uint32_t nodes, std::uint64_t seed)
      : nodes_(nodes),
        rng_(seed),
        shared_(std::max<std::uint64_t>(64, nodes / kNodesPerSharedPage)),
        zipf_(shared_, kPageSkew, seed ^ 0x5A5A5A5A5A5A5A5AULL) {
    out_.shared_pages = shared_;
  }

  History build() {
    const std::uint32_t t_count = kThreads;
    for (std::uint32_t t = 0; t < t_count; ++t) {
      push(make_event(Event::Kind::kStart, t));
    }
    const std::uint64_t per_round =
        static_cast<std::uint64_t>(t_count) * (2 * kSections + 1);
    const auto barrier = make_object_id(ObjectKind::kBarrier, 1);
    for (std::uint64_t round = 0;
         out_.node_count + per_round + t_count <= nodes_ ||
         round == 0;
         ++round) {
      // Steps left per thread this round: kSections lock steps, then
      // the barrier step. Threads interleave at step granularity in a
      // seeded order; a lock step is atomic in the stream, so no two
      // threads ever hold one mutex.
      std::vector<std::uint32_t> left(t_count, kSections + 1);
      std::vector<std::uint32_t> live(t_count);
      std::iota(live.begin(), live.end(), 0u);
      while (!live.empty()) {
        const std::size_t pick = rng_.below(live.size());
        const std::uint32_t t = live[pick];
        if (--left[t] > 0) {
          lock_step(t, round);
        } else {
          compute(t, round, SyncEventKind::kBarrierWait, barrier);
          push(make_event(Event::Kind::kRelease, t, barrier));
          live[pick] = live.back();
          live.pop_back();
        }
      }
      for (std::uint32_t t = 0; t < t_count; ++t) {
        push(make_event(Event::Kind::kAcquire, t, barrier));
      }
    }
    for (std::uint32_t t = 0; t < t_count; ++t) {
      Event e = make_event(Event::Kind::kExit, t);
      e.read_offset = run({private_page(t, 0)});
      e.read_count = 1;
      e.write_offset = static_cast<std::uint32_t>(out_.pages.size());
      push(e);
      ++out_.node_count;
    }
    return std::move(out_);
  }

 private:
  void push(const Event& e) { out_.events.push_back(e); }

  std::uint64_t lock_page(std::uint32_t lock, std::uint32_t k) const {
    return shared_ + 2 * lock + k;
  }
  std::uint64_t private_page(std::uint32_t t, std::uint64_t round) const {
    return shared_ + 2 * kLocks + 4 * t + round % 4;
  }

  /// Append a sorted, duplicate-free page run; returns its offset.
  std::uint32_t run(PageSet pages) {
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    const auto offset = static_cast<std::uint32_t>(out_.pages.size());
    out_.pages.insert(out_.pages.end(), pages.begin(), pages.end());
    last_count_ = static_cast<std::uint32_t>(pages.size());
    return offset;
  }

  void branches(std::uint32_t t) {
    const std::uint64_t n = rng_.below(3);
    for (std::uint64_t b = 0; b < n; ++b) {
      Event e = make_event(Event::Kind::kBranch, t);
      e.branch.ip = 0x400000 + rng_.below(1 << 16) * 4;
      e.branch.target = 0x400000 + rng_.below(1 << 16) * 4;
      e.branch.taken = (rng_.next() & 1) != 0;
      push(e);
    }
  }

  /// A compute segment outside any lock, ended by `reason` on `object`.
  void compute(std::uint32_t t, std::uint64_t round, SyncEventKind reason,
               inspector::sync::ObjectId object) {
    branches(t);
    Event e = make_event(Event::Kind::kEnd, t, object, reason);
    PageSet reads{private_page(t, round)};
    const std::uint64_t shared_reads = 1 + rng_.below(3);
    for (std::uint64_t i = 0; i < shared_reads; ++i) {
      reads.push_back(zipf_.sample(rng_));
    }
    e.read_offset = run(std::move(reads));
    e.read_count = last_count_;
    PageSet writes{private_page(t, round + 1)};
    if (rng_.unit() < kSharedWriteP) {
      writes.push_back(zipf_.sample(rng_));
    }
    e.write_offset = run(std::move(writes));
    e.write_count = last_count_;
    push(e);
    ++out_.node_count;
  }

  /// Compute, acquire a lock, run the critical section, release.
  void lock_step(std::uint32_t t, std::uint64_t round) {
    const auto lock = static_cast<std::uint32_t>(rng_.below(kLocks));
    const auto mutex = make_object_id(ObjectKind::kMutex, lock + 1);
    compute(t, round, SyncEventKind::kMutexLock, mutex);
    push(make_event(Event::Kind::kAcquire, t, mutex));
    branches(t);
    Event cs = make_event(Event::Kind::kEnd, t, mutex,
                          SyncEventKind::kMutexUnlock);
    cs.read_offset = run({lock_page(lock, 0), lock_page(lock, 1)});
    cs.read_count = last_count_;
    cs.write_offset = run({lock_page(lock, rng_.below(2))});
    cs.write_count = last_count_;
    push(cs);
    ++out_.node_count;
    push(make_event(Event::Kind::kRelease, t, mutex));
  }

  std::uint32_t nodes_;
  Rng rng_;
  std::uint64_t shared_;
  Zipf zipf_;
  History out_;
  std::uint32_t last_count_ = 0;
};

PageSet page_run(const History& h, std::uint32_t offset, std::uint32_t count) {
  return PageSet(h.pages.begin() + offset, h.pages.begin() + offset + count);
}

}  // namespace

History generate_history(std::uint32_t nodes, std::uint64_t seed) {
  return Builder(nodes, seed).build();
}

void replay(const History& history, inspector::cpg::Recorder& recorder) {
  for (const Event& e : history.events) {
    switch (e.kind) {
      case Event::Kind::kStart:
        recorder.thread_started(e.thread, e.thread);
        break;
      case Event::Kind::kBranch:
        recorder.on_branch(e.thread, e.branch);
        break;
      case Event::Kind::kRelease:
        recorder.on_release(e.thread, e.object);
        break;
      case Event::Kind::kAcquire:
        recorder.on_acquire(e.thread, e.object);
        break;
      case Event::Kind::kEnd:
        recorder.end_subcomputation(
            e.thread, page_run(history, e.read_offset, e.read_count),
            page_run(history, e.write_offset, e.write_count),
            {e.reason, e.object});
        break;
      case Event::Kind::kExit:
        recorder.thread_exiting(
            e.thread, page_run(history, e.read_offset, e.read_count),
            page_run(history, e.write_offset, e.write_count));
        break;
    }
  }
}

}  // namespace perfbench
