// The barrier-round synthetic history the query and shard benches
// share: `threads` workers run `rounds` rounds; each round every worker
// writes its own page slice and reads its neighbour's, then all cross
// a barrier. A wide graph (threads x rounds nodes) with rich
// cross-thread dataflow and page sharing -- the shape the indexed
// queries (per-page lookups instead of all-node scans) are built for.
// Deterministic: the same arguments record the same graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "cpg/graph.h"
#include "cpg/recorder.h"
#include "util/page_set.h"

namespace inspector::bench {

inline cpg::Graph synthetic_cpg(std::uint32_t threads, std::uint32_t rounds,
                                std::uint64_t pages_per_node) {
  using sync::SyncEventKind;
  const auto barrier = sync::make_object_id(sync::ObjectKind::kBarrier, 1);
  cpg::Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      PageSet reads;
      PageSet writes;
      const std::uint32_t neighbour = (t + 1) % threads;
      for (std::uint64_t p = 0; p < pages_per_node; ++p) {
        writes.push_back((static_cast<std::uint64_t>(t) * pages_per_node + p) %
                         (threads * pages_per_node));
        reads.push_back(
            (static_cast<std::uint64_t>(neighbour) * pages_per_node + p) %
            (threads * pages_per_node));
      }
      std::sort(reads.begin(), reads.end());
      std::sort(writes.begin(), writes.end());
      rec.end_subcomputation(t, std::move(reads), std::move(writes),
                             {SyncEventKind::kBarrierWait, barrier});
      rec.on_release(t, barrier);
    }
    for (std::uint32_t t = 0; t < threads; ++t) rec.on_acquire(t, barrier);
  }
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_exiting(t, {}, {});
  return std::move(rec).finalize();
}

}  // namespace inspector::bench
