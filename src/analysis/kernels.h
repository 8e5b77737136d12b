// Provenance query kernels, each written once against a read-only view.
//
// Every question the query engine answers -- happens-before, latest
// writers, data dependencies, both slices, the race scan, the
// taint/invalidation fixpoint, sink selection and the critical-path DP
// -- has exactly one algorithm body, here. A kernel never touches
// storage; it reads a *view* (the contract is below) with two models:
//
//   - analysis::GraphView (analysis/graph_view.h): the in-memory
//     cpg::Graph index at zero cost -- spans into the CSR adjacency and
//     the inverted index, the whole page universe as one zero-copy race
//     batch, and an empty residency scope;
//   - the shard model in shard/engine.cpp: rank-fenced bucket merges
//     under shard pins, the frontier-merged neighbour walk, and
//     shard-major race batches.
//
// The algorithm is written once and only the way data streams in
// differs (GraphChi's storage / vertex-program split). Kernels open a
// residency Scope per node expansion, per level and per topological
// section; a shard model pins shards for a Scope's lifetime, so those
// units bound how much of a store is resident at once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/critical_path.h"
#include "analysis/races.h"
#include "cpg/graph.h"
#include "util/bitset.h"
#include "util/page_set.h"
#include "util/parallel.h"

namespace inspector::analysis {

/// One page of the universe: its id and its dense index in pages().
struct PageRef {
  std::uint64_t page = 0;
  std::size_t index = 0;
};

/// The half-open hb-rank range [lo, hi) of a bucket a kernel reads:
/// [0, rank(reader)) for the writers a reader can depend on,
/// [rank(v) + 1, end) for the readers that can happen after v. Ranks
/// are below the node count, which a NodeId bounds, so the default
/// covers every rank.
struct RankWindow {
  std::uint32_t lo = 0;
  std::uint32_t hi = std::numeric_limits<std::uint32_t>::max();
};

/// A resolved node: global id, hb-rank and payload, valid while the
/// Scope (or race batch) that produced it lives. A model's node
/// reference may extend it with its own adjacency handle.
struct NodeRef {
  cpg::NodeId id = cpg::kInvalidNode;
  std::uint32_t rank = 0;
  const cpg::SubComputation* node = nullptr;
};

/// The read-only view every kernel is written against (a template
/// parameter: the calls inline, nothing is virtual). A view `V` has
///   - V::Scope and scope(): a residency scope; node and bucket lookups
///     stay valid while the scope they were made under lives;
///   - V::Ref, a NodeRef the view's neighbour walks accept;
///   - node(scope, id): strict lookup, throws when the node cannot be
///     served; try_node(scope, id): lenient, nullopt when a degraded
///     execution skips it;
///   - node_count(), thread_count(), pages() (the sorted page
///     universe), cyclic(), stats();
///   - bucket(scope, PageRef, writers, RankWindow): the writers or
///     readers of one page inside a rank window, ascending rank, with
///     size() and ref(i) -> NodeRef;
///   - for_each_in/out(ref, fn(NodeId)): recorded (control/sync)
///     neighbours, in global edge-index order;
///   - level_count() and level(scope, level, fn(NodeRef)): the nodes of
///     one global topological level;
///   - section_count() and section(scope, s, fn(Ref)): the nodes of one
///     topological section, in topological order; every recorded edge
///     points into the same or a later section;
///   - race_batch_pages() and race_batch(span<const PageRef>,
///     page_sets): the buckets of a run of scan pages, writers(k) and
///     readers(k), plus node(id) for their payloads (with page sets
///     when asked).

/// Marked nodes and pages of a forward page-flow pass.
struct Propagation {
  /// Marked sub-computations, ascending id order.
  std::vector<cpg::NodeId> nodes;
  /// Marked pages: the seeds plus everything marked nodes wrote.
  /// Sorted and duplicate-free, like every page set in the system.
  PageSet pages;
};

namespace kernels {

// --- shared helpers ---------------------------------------------------

[[nodiscard]] inline bool happens_before(const NodeRef& a, const NodeRef& b) {
  return cpg::happens_before(a.rank, *a.node, b.rank, *b.node);
}

/// Dense index of `page` in the sorted page universe, if present.
[[nodiscard]] inline std::optional<std::size_t> page_index_in(
    std::span<const std::uint64_t> universe, std::uint64_t page) {
  const auto it = std::lower_bound(universe.begin(), universe.end(), page);
  if (it == universe.end() || *it != page) return std::nullopt;
  return static_cast<std::size_t>(it - universe.begin());
}

/// Visit every page of `set` present in the sorted universe. Both sides
/// are sorted and a page set is usually tiny against the universe, so a
/// galloping cursor replaces a per-page binary search over all pages.
template <typename Fn>
void for_each_indexed_page(std::span<const std::uint64_t> universe,
                           const PageSet& set, Fn&& fn) {
  std::size_t pos = 0;
  for (const std::uint64_t page : set) {
    pos = page_set_gallop(universe, pos, page);
    if (pos == universe.size()) break;
    if (universe[pos] == page) fn(PageRef{page, pos});
  }
}

// --- dependence queries -----------------------------------------------

/// All update-use dependencies of `reader`: every writer of a page it
/// reads that happens before it. The reader resolves strictly: a
/// degraded execution has no partial answer for a node it cannot read.
template <typename View>
std::vector<cpg::Edge> data_dependencies(const View& view,
                                         cpg::NodeId reader_id) {
  auto scope = view.scope();
  const NodeRef reader = view.node(scope, reader_id);
  std::vector<cpg::Edge> result;
  for_each_indexed_page(view.pages(), reader.node->read_set, [&](PageRef p) {
    // happens_before(w, reader) implies rank(w) < rank(reader), so the
    // candidate window ends at reader's rank.
    const auto writers = view.bucket(scope, p, /*writers=*/true,
                                     {0, reader.rank});
    for (std::size_t i = 0; i < writers.size(); ++i) {
      const NodeRef w = writers.ref(i);
      if (happens_before(w, reader)) {
        result.push_back({w.id, reader.id, cpg::EdgeKind::kData, p.page});
      }
    }
  });
  return result;
}

/// For each page `reader` reads, the latest writers under
/// happens-before: the ones no other happens-before writer of the page
/// succeeds.
template <typename View>
std::vector<cpg::Edge> latest_writers(const View& view,
                                      typename View::Scope& scope,
                                      const NodeRef& reader) {
  std::vector<cpg::Edge> result;
  std::vector<NodeRef> maximal;
  for_each_indexed_page(view.pages(), reader.node->read_set, [&](PageRef p) {
    const auto writers = view.bucket(scope, p, /*writers=*/true,
                                     {0, reader.rank});
    maximal.clear();
    // Backward walk in rank order: any writer that would supersede the
    // current candidate has a higher rank and was already collected, so
    // one pass against `maximal` finds exactly the un-superseded set.
    for (std::size_t i = writers.size(); i-- > 0;) {
      const NodeRef w = writers.ref(i);
      if (!happens_before(w, reader)) continue;
      const bool superseded =
          std::any_of(maximal.begin(), maximal.end(),
                      [&](const NodeRef& d) { return happens_before(w, d); });
      if (!superseded) maximal.push_back(w);
    }
    std::sort(maximal.begin(), maximal.end(),
              [](const NodeRef& a, const NodeRef& b) { return a.id < b.id; });
    for (const NodeRef& w : maximal) {
      result.push_back({w.id, reader.id, cpg::EdgeKind::kData, p.page});
    }
  });
  return result;
}

/// latest_writers from a node id, which resolves strictly like
/// data_dependencies' reader.
template <typename View>
std::vector<cpg::Edge> latest_writers(const View& view, cpg::NodeId reader) {
  auto scope = view.scope();
  return latest_writers(view, scope, view.node(scope, reader));
}

// --- traversal queries ------------------------------------------------

/// The batched-bitset BFS both slices run: a whole frontier generation
/// expands into a reusable next-vector and the visited set is a flat
/// word bitset (fused test_and_set). The slice is sorted before
/// returning, so replies cannot see the traversal order. `expand(scope,
/// v, visited, next)` adds v's unvisited neighbours to `next`.
template <typename View, typename Expand>
std::vector<cpg::NodeId> slice_from(const View& view, cpg::NodeId start,
                                    Expand&& expand) {
  {
    // The anchor resolves strictly, like the dependence queries'.
    auto scope = view.scope();
    (void)view.node(scope, start);
  }
  util::Bitset visited(view.node_count());
  std::vector<cpg::NodeId> frontier{start};
  std::vector<cpg::NodeId> next;
  visited.set(start);
  std::vector<cpg::NodeId> slice;
  while (!frontier.empty()) {
    next.clear();
    for (const cpg::NodeId cur : frontier) {
      slice.push_back(cur);
      // One scope per node expansion: residency is the node's shard
      // plus its neighbours', not the whole reachable set.
      auto scope = view.scope();
      // A reached node a degraded execution cannot read stays in the
      // slice (its id is known from the edge) but is not expanded.
      if (const auto v = view.try_node(scope, cur)) {
        expand(scope, *v, visited, next);
      }
    }
    frontier.swap(next);
  }
  std::sort(slice.begin(), slice.end());
  return slice;
}

/// Every node reachable from `start` going against control, sync and
/// latest-writer data edges.
template <typename View>
std::vector<cpg::NodeId> backward_slice(const View& view, cpg::NodeId start) {
  return slice_from(view, start,
                    [&](typename View::Scope& scope,
                        const typename View::Ref& v, util::Bitset& visited,
                        std::vector<cpg::NodeId>& next) {
                      const auto visit = [&](cpg::NodeId id) {
                        if (!visited.test_and_set(id)) next.push_back(id);
                      };
                      view.for_each_in(v, visit);
                      for (const cpg::Edge& e :
                           latest_writers(view, scope, v)) {
                        visit(e.from);
                      }
                    });
}

/// Every node reachable from `start` along control, sync and
/// read-after-write data edges.
template <typename View>
std::vector<cpg::NodeId> forward_slice(const View& view, cpg::NodeId start) {
  return slice_from(
      view, start,
      [&](typename View::Scope& scope, const typename View::Ref& v,
          util::Bitset& visited, std::vector<cpg::NodeId>& next) {
        view.for_each_out(v, [&](cpg::NodeId id) {
          if (!visited.test_and_set(id)) next.push_back(id);
        });
        // Data successors: readers (under happens-before) of the pages
        // v wrote, which all rank above v.
        for_each_indexed_page(
            view.pages(), v.node->write_set, [&](PageRef p) {
              const auto readers =
                  view.bucket(scope, p, /*writers=*/false, {v.rank + 1});
              for (std::size_t i = 0; i < readers.size(); ++i) {
                const NodeRef r = readers.ref(i);
                if (!visited.test(r.id) && happens_before(v, r)) {
                  visited.set(r.id);
                  next.push_back(r.id);
                }
              }
            });
      });
}

// --- races ------------------------------------------------------------

using MinPage = std::optional<std::uint64_t>;

inline void note_page(MinPage& slot, std::uint64_t page) {
  if (!slot || page < *slot) slot = page;
}

/// Conflict evidence accumulated for one concurrent node pair (first <
/// second by id). A write/write conflict wins, then the smallest page
/// in first's write set vs second's read set, then the converse.
struct PairConflicts {
  MinPage ww;  ///< min page both wrote
  MinPage wr;  ///< min page first wrote, second read
  MinPage rw;  ///< min page first read, second wrote
};

/// Keyed by (first << 32) | second with first < second.
using PairMap = std::unordered_map<std::uint64_t, PairConflicts>;

/// Scan one page's writer/reader buckets into `pairs`. Only concurrent
/// (racy) pairs are stored -- hb-ordered pairs are recheck-on-probe (a
/// cheap clock compare on the buckets' payloads) so memory stays
/// O(races) no matter how many ordered pairs share a hot page.
template <typename Bucket>
void scan_page(std::uint64_t page, const Bucket& writers,
               const Bucket& readers, PairMap& pairs) {
  const auto conflicts_of = [&](const NodeRef& a,
                                const NodeRef& b) -> PairConflicts* {
    const auto key = std::minmax(a.id, b.id);
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(key.first) << 32) | key.second;
    if (const auto it = pairs.find(packed); it != pairs.end()) {
      return &it->second;
    }
    if (happens_before(a, b) || happens_before(b, a)) return nullptr;
    return &pairs.try_emplace(packed).first->second;
  };
  for (std::size_t i = 0; i < writers.size(); ++i) {
    const NodeRef w = writers.ref(i);
    for (std::size_t j = i + 1; j < writers.size(); ++j) {
      const NodeRef b = writers.ref(j);
      if (w.node->thread == b.node->thread) continue;
      if (PairConflicts* c = conflicts_of(w, b)) note_page(c->ww, page);
    }
    for (std::size_t j = 0; j < readers.size(); ++j) {
      const NodeRef r = readers.ref(j);
      if (w.id == r.id || w.node->thread == r.node->thread) continue;
      if (PairConflicts* c = conflicts_of(w, r)) {
        // Orient the conflict the way the (first, second) pair sees it.
        note_page(w.id < r.id ? c->wr : c->rw, page);
      }
    }
  }
}

/// Reports from an accumulated pair map, in (first, second) order, at
/// most `limit` of them (0 = all).
inline std::vector<RaceReport> emit_reports(const PairMap& pairs,
                                            std::size_t limit) {
  std::vector<std::uint64_t> racy_keys;
  racy_keys.reserve(pairs.size());
  for (const auto& entry : pairs) racy_keys.push_back(entry.first);
  std::sort(racy_keys.begin(), racy_keys.end());

  std::vector<RaceReport> races;
  for (const std::uint64_t key : racy_keys) {
    const PairConflicts& mins = pairs.at(key);
    if (!mins.ww && !mins.wr && !mins.rw) continue;
    RaceReport report;
    report.first = static_cast<cpg::NodeId>(key >> 32);
    report.second = static_cast<cpg::NodeId>(key & 0xFFFFFFFF);
    report.write_write = mins.ww.has_value();
    report.page = mins.ww ? *mins.ww : (mins.wr ? *mins.wr : *mins.rw);
    races.push_back(report);
    if (limit != 0 && races.size() >= limit) break;
  }
  return races;
}

/// All conflicting concurrent pairs, page-major: only nodes that touched
/// the same page are paired, so cost scales with real page sharing
/// rather than all node pairs. The scan pages (the universe minus
/// `ignored`, in global order) split into runs of race_batch_pages()
/// (a limited scan's runs start at `limit` pages and double up to
/// it); each run's buckets are gathered once (a shard model visits
/// each eligible shard once per run) and then scanned.
///
/// With a `limit`, scanning stops once that many racy pairs exist; the
/// caller asked for "at most N", not the globally smallest pages. The
/// check sits at page granularity, so when the scan runs out of pages
/// naturally the accumulated minima are exact. Short-circuiting is
/// scan-order dependent, so limited scans stay serial; only the full
/// scan parallelizes.
template <typename View>
std::vector<RaceReport> find_races(const View& view, PageSet ignored,
                                   std::size_t limit) {
  page_set_normalize(ignored);
  const auto universe = view.pages();
  std::vector<PageRef> scan;
  scan.reserve(universe.size());
  for (std::size_t idx = 0; idx < universe.size(); ++idx) {
    if (!page_set_contains(ignored, universe[idx])) {
      scan.push_back({universe[idx], idx});
    }
  }
  const std::size_t per_batch = view.race_batch_pages();
  const auto batch_at = [&](std::size_t begin, std::size_t size) {
    return std::span<const PageRef>(scan).subspan(
        begin, std::min(size, scan.size() - begin));
  };

  if (limit != 0) {
    PairMap pairs;
    // A truncated scan reports each pair's minima over the two nodes'
    // whole page sets, not just the pages scanned. They are derived
    // while the run that found the pair still holds its nodes.
    PairMap whole;
    std::size_t scanned = 0;
    // Runs start at `limit` pages -- as many pages as the caller wants
    // pairs -- and double up to race_batch_pages(): a limit met early
    // gathers little beyond the pages it scans (a shard model loads
    // every shard a run's pages touch), a scan of at most `limit`
    // pages (a page window) is still one run, and a long scan reaches
    // full-size runs after log2 of them. Which pages are scanned, in
    // which order, does not depend on the run sizes.
    std::size_t run_pages = std::min(limit, per_batch);
    while (scanned < scan.size() && pairs.size() < limit) {
      const auto pages = batch_at(scanned, run_pages);
      run_pages = std::min(run_pages * 2, per_batch);
      const auto batch = view.race_batch(pages, /*page_sets=*/true);
      for (std::size_t k = 0; k < pages.size() && pairs.size() < limit;
           ++k, ++scanned) {
        scan_page(pages[k].page, batch.writers(k), batch.readers(k), pairs);
      }
      // Which keys are new does not depend on the map's order.
      for (const auto& entry : pairs) {
        if (whole.contains(entry.first)) continue;
        const cpg::SubComputation& a =
            batch.node(static_cast<cpg::NodeId>(entry.first >> 32));
        const cpg::SubComputation& b =
            batch.node(static_cast<cpg::NodeId>(entry.first & 0xFFFFFFFF));
        whole.emplace(
            entry.first,
            PairConflicts{
                page_set_first_intersection(a.write_set, b.write_set, ignored),
                page_set_first_intersection(a.write_set, b.read_set, ignored),
                page_set_first_intersection(a.read_set, b.write_set,
                                            ignored)});
      }
    }
    // Truncated: the limit was reached while some page of the universe,
    // ignored or not, remained.
    const bool truncated =
        pairs.size() >= limit && scan[scanned - 1].page < universe.back();
    return emit_reports(truncated ? whole : pairs, limit);
  }

  // Full scan: per run, the pages fan out over the pool, each worker
  // accumulates into its own pair map, and the maps merge by per-slot
  // minimum -- commutative, so the report list is identical at every
  // worker, shard and batch count.
  const auto pool = util::shared_pool();
  util::WorkerLocal<PairMap> local(*pool);
  for (std::size_t begin = 0; begin < scan.size(); begin += per_batch) {
    const auto pages = batch_at(begin, per_batch);
    const auto batch = view.race_batch(pages, /*page_sets=*/false);
    pool->parallel_for(
        0, pages.size(), 32, [&](std::size_t b, std::size_t e, unsigned w) {
          for (std::size_t k = b; k < e; ++k) {
            scan_page(pages[k].page, batch.writers(k), batch.readers(k),
                      local[w]);
          }
        });
  }
  PairMap pairs = std::move(local[0]);
  for (unsigned w = 1; w < pool->worker_count(); ++w) {
    for (const auto& [key, c] : local[w]) {
      auto [it, inserted] = pairs.try_emplace(key, c);
      if (inserted) continue;
      if (c.ww) note_page(it->second.ww, *c.ww);
      if (c.wr) note_page(it->second.wr, *c.wr);
      if (c.rw) note_page(it->second.rw, *c.rw);
    }
  }
  return emit_reports(pairs, 0);
}

// --- flow propagation (taint / invalidate) ----------------------------

/// The forward page-flow fixpoint taint tracking and incremental
/// invalidation share: seed pages, walk the topological levels in
/// order, mark every node that reads a marked page (with
/// `thread_carryover`, also every later node of a thread that consumed
/// marked data: registers survive pthreads calls), and mark the pages
/// it writes. Seeds need not be normalized and may name pages no node
/// touched (they then only appear in the result).
///
/// A node's mark normally depends only on marks from strictly lower
/// levels (no recorded path joins two nodes of one level, and a
/// thread's nodes sit on distinct levels), so each level scans
/// chunk-parallel against the bitmap snapshot, workers collect their
/// deltas in per-worker scratch, and the deltas OR-merge between
/// rounds. Nodes of one level with conflicting page sets are
/// concurrent -- a data race, whose flow is schedule-dependent -- so
/// the pass stays conservative: whenever a round grows the marks, the
/// level's remaining nodes are rescanned until a fixpoint. The closure
/// is monotone, so the result is bit-identical at every worker count,
/// level scan order and shard count.
template <typename View>
Propagation propagate(const View& view, const PageSet& seed_pages,
                      bool thread_carryover) {
  Propagation result;
  result.pages = seed_pages;
  page_set_normalize(result.pages);

  // Dense mark bits over the page universe. A page outside it (a seed
  // no node touched, or a stale shard file's page) is never marked.
  const auto universe = view.pages();
  std::vector<char> page_marked(universe.size(), 0);
  for (const std::uint64_t page : result.pages) {
    if (const auto idx = page_index_in(universe, page)) page_marked[*idx] = 1;
  }
  std::vector<char> thread_marked(view.thread_count(), 0);
  std::vector<char> node_marked(view.node_count(), 0);

  struct Delta {
    std::vector<cpg::NodeId> nodes;
    std::vector<std::size_t> pages;  ///< dense page indices
    std::vector<cpg::ThreadId> threads;
  };
  const auto pool = util::shared_pool();
  util::WorkerLocal<Delta> local(*pool);
  std::vector<NodeRef> pending;
  std::vector<NodeRef> still_unmarked;

  for (std::size_t lvl = 0; lvl < view.level_count(); ++lvl) {
    auto scope = view.scope();
    pending.clear();
    view.level(scope, lvl, [&](const NodeRef& v) { pending.push_back(v); });
    while (!pending.empty()) {
      pool->parallel_for(
          0, pending.size(), 64,
          [&](std::size_t b, std::size_t e, unsigned worker) {
            Delta& d = local[worker];
            for (std::size_t k = b; k < e; ++k) {
              const cpg::SubComputation& node = *pending[k].node;
              bool marked =
                  thread_carryover && thread_marked[node.thread] != 0;
              if (!marked) {
                for (const std::uint64_t page : node.read_set) {
                  const auto idx = page_index_in(universe, page);
                  if (idx && page_marked[*idx] != 0) {
                    marked = true;
                    break;
                  }
                }
              }
              if (!marked) continue;
              d.nodes.push_back(pending[k].id);
              // Thread bits only matter under carry-over; skipping
              // them otherwise avoids rescans that cannot mark.
              if (thread_carryover) d.threads.push_back(node.thread);
              for (const std::uint64_t page : node.write_set) {
                const auto idx = page_index_in(universe, page);
                if (idx && page_marked[*idx] == 0) d.pages.push_back(*idx);
              }
            }
          });
      // A rescan can only find something if this round grew the mark
      // state the remaining nodes test against (a page or thread bit
      // flipped) -- node marks alone cannot influence them.
      bool marks_grew = false;
      for (unsigned w = 0; w < pool->worker_count(); ++w) {
        Delta& d = local[w];
        result.nodes.insert(result.nodes.end(), d.nodes.begin(),
                            d.nodes.end());
        for (const cpg::NodeId id : d.nodes) node_marked[id] = 1;
        for (const cpg::ThreadId t : d.threads) {
          if (char& bit = thread_marked[t]; bit == 0) {
            bit = 1;
            marks_grew = true;
          }
        }
        for (const std::size_t idx : d.pages) {
          if (char& bit = page_marked[idx]; bit == 0) {
            bit = 1;
            marks_grew = true;
            result.pages.push_back(universe[idx]);
          }
        }
        d.nodes.clear();
        d.pages.clear();
        d.threads.clear();
      }
      if (!marks_grew) break;
      still_unmarked.clear();
      for (const NodeRef& v : pending) {
        if (node_marked[v.id] == 0) still_unmarked.push_back(v);
      }
      pending.swap(still_unmarked);
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  page_set_normalize(result.pages);
  return result;
}

/// Nodes that end in `sink_kind` and are in `marked` (ascending),
/// ascending id. One section resident at a time.
template <typename View>
std::vector<cpg::NodeId> marked_sinks(const View& view,
                                      const std::vector<cpg::NodeId>& marked,
                                      sync::SyncEventKind sink_kind) {
  util::Bitset is_marked(view.node_count());
  for (const cpg::NodeId id : marked) is_marked.set(id);
  std::vector<cpg::NodeId> sinks;
  for (std::size_t s = 0; s < view.section_count(); ++s) {
    auto scope = view.scope();
    view.section(scope, s, [&](const NodeRef& v) {
      if (v.node->end.kind == sink_kind && is_marked.test(v.id)) {
        sinks.push_back(v.id);
      }
    });
  }
  std::sort(sinks.begin(), sinks.end());
  return sinks;
}

// --- critical path ----------------------------------------------------

/// Longest path through the recorded control+sync edges: DAG dynamic
/// programming over the topological sections, one section resident at
/// a time. Every recorded edge points into the same or a later
/// section, so one forward pass computes the whole-graph DP. The
/// predecessor tie-break is the first in-edge, in global edge order,
/// achieving the max.
template <typename View>
CriticalPath critical_path(const View& view) {
  CriticalPath result;
  result.total_nodes = view.node_count();
  if (result.total_nodes == 0) return result;
  // depth[v]: longest chain ending at v; pred[v]: predecessor on it.
  std::vector<std::size_t> depth(result.total_nodes, 1);
  std::vector<cpg::NodeId> pred(result.total_nodes, cpg::kInvalidNode);
  for (std::size_t s = 0; s < view.section_count(); ++s) {
    auto scope = view.scope();
    view.section(scope, s, [&](const typename View::Ref& v) {
      view.for_each_in(v, [&](cpg::NodeId u) {
        if (depth[u] + 1 > depth[v.id]) {
          depth[v.id] = depth[u] + 1;
          pred[v.id] = u;
        }
      });
    });
  }
  const auto tail = static_cast<cpg::NodeId>(
      std::max_element(depth.begin(), depth.end()) - depth.begin());
  result.length = depth[tail];
  for (cpg::NodeId v = tail; v != cpg::kInvalidNode; v = pred[v]) {
    result.nodes.push_back(v);
  }
  std::reverse(result.nodes.begin(), result.nodes.end());
  return result;
}

}  // namespace kernels

}  // namespace inspector::analysis
