#include "shard/engine.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/race_pairs.h"
#include "analysis/races.h"
#include "query/overloaded.h"
#include "util/bitset.h"
#include "util/page_set.h"
#include "util/parallel.h"
#include "util/status.h"

namespace inspector::shard {

namespace {

using query::detail::node_range_error;
using query::detail::Overloaded;
using query::detail::untouched_page_error;
using query::Query;
using query::QueryResult;

/// A pin set: shards load on first touch and stay alive (and
/// pointer-stable) until the Pins object dies. The store never evicts
/// a pinned shard; a miss it cannot make room for is served uncached
/// and lives exactly as long as this pin. Scope discipline is
/// what keeps the memory budget honest -- whole-graph passes (races,
/// slices, propagation, critical path) must scope their pins per shard
/// visit / per node / per level, never per operation, so residency is
/// bounded by one unit of work plus the store's budgeted cache, and a
/// pin released between units frees the cache for the next. The store
/// counts uncached-but-pinned shards in Stats::peak_resident_bytes, so
/// a pass that outgrows its scope shows up in the numbers instead of
/// hiding. Page gathers pin only the
/// shards whose rank fence meets the caller's window (RankWindow).
/// Load failures (including a corrupt compressed payload, surfaced by
/// the store as a typed Status) throw StatusError here; the backend's
/// execute() boundary converts the escape back into its typed Status.
///
/// Degraded mode: every execution shares one Degraded record. When
/// `allow` is set (the serving process opted in), shard_or_null() and
/// try_node() swallow a quarantined shard -- they flag `hit` and
/// return nothing, and the caller skips that slice of the answer.
/// Strict accessors (shard(), node()) always throw: query anchors have
/// no partial answer to fall back on.
struct Degraded {
  bool allow = false;
  std::atomic<bool> hit{false};  ///< a quarantined shard was skipped
};

class Pins {
 public:
  Pins(ShardStore& store, Degraded& degraded)
      : store_(store),
        degraded_(degraded),
        held_(store.manifest().shard_count) {}

  /// The store's resident-first shard order (ShardStore::visit_order).
  [[nodiscard]] std::vector<std::uint32_t> visit_order() const {
    return store_.visit_order();
  }

  const LoadedShard& shard(std::uint32_t index) {
    const LoadedShard* ls = load(index, /*lenient=*/false);
    return *ls;  // load() threw if it could not deliver
  }

  /// The shard, or nullptr if it is quarantined and the execution
  /// allows degraded answers (Degraded::hit is flagged). Any other
  /// failure still throws.
  const LoadedShard* shard_or_null(std::uint32_t index) {
    return load(index, /*lenient=*/true);
  }

  struct NodeView {
    const cpg::SubComputation* node = nullptr;
    const LoadedShard* shard = nullptr;
    std::uint32_t local = 0;
    std::uint32_t rank = 0;
    std::uint32_t level = 0;
  };

  NodeView node(cpg::NodeId global) {
    const std::uint32_t shard_index = store_.shard_of(global);
    return view(shard(shard_index), shard_index, global);
  }

  /// The node, or nullopt if its shard is quarantined and the
  /// execution allows degraded answers. A resident shard that lacks
  /// the node is store inconsistency and always throws.
  std::optional<NodeView> try_node(cpg::NodeId global) {
    const std::uint32_t shard_index = store_.shard_of(global);
    const LoadedShard* ls = shard_or_null(shard_index);
    if (ls == nullptr) return std::nullopt;
    return view(*ls, shard_index, global);
  }

 private:
  const LoadedShard* load(std::uint32_t index, bool lenient) {
    if (!held_[index]) {
      auto loaded = store_.load(index);
      if (!loaded.ok()) {
        if (lenient && degraded_.allow &&
            loaded.status().code() == StatusCode::kUnavailable) {
          degraded_.hit.store(true, std::memory_order_relaxed);
          return nullptr;
        }
        // lint: allow(no-throw-across-boundary) internal StatusError; the backend boundary catches it and returns the typed Status
        throw StatusError(loaded.status());
      }
      held_[index] = std::move(loaded).value();
    }
    return held_[index].get();
  }

  NodeView view(const LoadedShard& ls, std::uint32_t shard_index,
                cpg::NodeId global) {
    const auto local = ls.local_of(global);
    if (!local) {
      // The manifest routed here but the file disagrees: mixed or
      // corrupt store files. A typed failure, never UB.
      // lint: allow(no-throw-across-boundary) internal StatusError; the backend boundary catches it and returns the typed Status
      throw StatusError(Status(
          StatusCode::kDataLoss,
          "sharded store is inconsistent: the manifest places node " +
              std::to_string(global) + " in shard " +
              std::to_string(shard_index) + " but the shard file lacks it"));
    }
    return {&ls.data.graph.nodes()[*local], &ls, *local,
            ls.data.global_ranks[*local], ls.data.global_levels[*local]};
  }

  ShardStore& store_;
  Degraded& degraded_;
  std::vector<std::shared_ptr<const LoadedShard>> held_;
};

/// Exact replica of Graph::happens_before over shard-resident nodes:
/// the global-rank fast reject first (two sidecar loads, no clock
/// walk), then same-thread alpha order, then the vector-clock compare.
bool happens_before(Pins& pins, cpg::NodeId a, cpg::NodeId b) {
  const auto na = pins.node(a);
  const auto nb = pins.node(b);
  if (na.rank >= nb.rank) return false;
  if (na.node->thread == nb.node->thread) {
    return na.node->alpha < nb.node->alpha;
  }
  return na.node->clock.happens_before(nb.node->clock);
}

/// One page's accessor list merged across its owning shards, in global
/// hb-rank order, restricted to a rank window -- exactly the slice of
/// the bucket the unsharded inverted index holds (per-shard buckets
/// are rank-sorted restrictions, rank is a global permutation, so the
/// merge is unique). Each entry carries its node payload pointer,
/// valid while the building Pins lives -- or, for the race scan's
/// buckets, while the batch owning the node copies lives -- so the
/// pair-dense race scan never re-resolves nodes through the store.
struct Bucket {
  std::vector<cpg::NodeId> nodes;    ///< global ids
  std::vector<std::uint32_t> ranks;  ///< aligned, strictly ascending
  std::vector<const cpg::SubComputation*> meta;  ///< aligned payloads
};

/// The half-open hb-rank range [lo, hi) of a bucket a caller reads:
/// [0, rank(reader)) for the writers a reader can depend on,
/// (rank(v), end) for the readers that can happen after v. Ranks are
/// below total_nodes, which a NodeId bounds, so the default covers
/// every rank.
struct RankWindow {
  std::uint32_t lo = 0;
  std::uint32_t hi = std::numeric_limits<std::uint32_t>::max();
};

Bucket merged_bucket(Pins& pins, const Manifest& m, std::uint64_t page,
                     bool writers, RankWindow window = {}) {
  struct Entry {
    std::uint32_t rank;
    cpg::NodeId id;
    const cpg::SubComputation* node;
  };
  std::vector<Entry> entries;
  // Cached shards first: pinning them before any miss loads keeps the
  // misses from evicting them. The rank sort below makes the merge
  // independent of the order.
  for (const std::uint32_t s : pins.visit_order()) {
    const ShardInfo& info = m.shards[s];
    // Fence-pruned without touching the file: the page fence must
    // cover the page, and the rank fence must meet the window (the
    // store validated at open that rank fences tile the rank space).
    if (info.min_page == kNoPage || page < info.min_page ||
        page > info.max_page || info.rank_hi <= window.lo ||
        info.rank_lo >= window.hi) {
      continue;
    }
    const LoadedShard* lsp = pins.shard_or_null(s);
    if (lsp == nullptr) continue;  // quarantined, degraded answer
    const LoadedShard& ls = *lsp;
    const auto span = writers ? ls.data.graph.page_writers(page)
                              : ls.data.graph.page_readers(page);
    for (const cpg::NodeId local : span) {
      const std::uint32_t rank = ls.data.global_ranks[local];
      if (rank < window.lo || rank >= window.hi) continue;
      entries.push_back(
          {rank, ls.data.global_ids[local], &ls.data.graph.nodes()[local]});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.rank < b.rank; });
  Bucket out;
  out.nodes.reserve(entries.size());
  out.ranks.reserve(entries.size());
  out.meta.reserve(entries.size());
  for (const Entry& e : entries) {
    out.ranks.push_back(e.rank);
    out.nodes.push_back(e.id);
    out.meta.push_back(e.node);
  }
  return out;
}

bool page_in_universe(const Manifest& m, std::uint64_t page) {
  return std::binary_search(m.pages.begin(), m.pages.end(), page);
}

// --- dependence queries ----------------------------------------------

std::vector<cpg::Edge> latest_writers(Pins& pins, const Manifest& m,
                                      cpg::NodeId reader) {
  const auto r = pins.node(reader);
  std::vector<cpg::Edge> result;
  std::vector<cpg::NodeId> maximal;
  for (const std::uint64_t page : r.node->read_set) {
    if (!page_in_universe(m, page)) continue;
    const Bucket writers =
        merged_bucket(pins, m, page, /*writers=*/true, {0, r.rank});
    maximal.clear();
    // Same backward rank walk as Graph::latest_writers: a superseding
    // writer has a higher rank and was already collected.
    for (std::size_t i = writers.nodes.size(); i-- > 0;) {
      const cpg::NodeId w = writers.nodes[i];
      if (!happens_before(pins, w, reader)) continue;
      const bool superseded =
          std::any_of(maximal.begin(), maximal.end(), [&](cpg::NodeId d) {
            return happens_before(pins, w, d);
          });
      if (!superseded) maximal.push_back(w);
    }
    std::sort(maximal.begin(), maximal.end());
    for (const cpg::NodeId w : maximal) {
      result.push_back({w, reader, cpg::EdgeKind::kData, page});
    }
  }
  return result;
}

std::vector<cpg::Edge> data_dependencies(Pins& pins, const Manifest& m,
                                         cpg::NodeId reader) {
  const auto r = pins.node(reader);
  std::vector<cpg::Edge> result;
  for (const std::uint64_t page : r.node->read_set) {
    if (!page_in_universe(m, page)) continue;
    const Bucket writers =
        merged_bucket(pins, m, page, /*writers=*/true, {0, r.rank});
    for (const cpg::NodeId w : writers.nodes) {
      if (happens_before(pins, w, reader)) {
        result.push_back({w, reader, cpg::EdgeKind::kData, page});
      }
    }
  }
  return result;
}

// --- traversal queries ------------------------------------------------

// Both slice walks run the batched-bitset BFS of Graph::*_slice: a
// whole frontier generation expands into a reusable next-vector and
// the visited set is a flat word bitset (fused test_and_set). The
// slice is sorted before returning, so replies cannot see the
// traversal order. Pins stay per node expansion: residency is one
// node's shard plus its neighbors' shards, not the whole reachable
// set.

std::vector<cpg::NodeId> backward_slice(ShardStore& store, Degraded& deg,
                                        const Manifest& m, cpg::NodeId start) {
  util::Bitset visited(m.total_nodes);
  std::vector<cpg::NodeId> frontier{start};
  std::vector<cpg::NodeId> next;
  visited.set(start);
  std::vector<cpg::NodeId> slice;
  const auto visit = [&](cpg::NodeId id) {
    if (!visited.test_and_set(id)) next.push_back(id);
  };
  while (!frontier.empty()) {
    next.clear();
    for (const cpg::NodeId cur : frontier) {
      slice.push_back(cur);
      Pins pins(store, deg);
      const auto maybe = pins.try_node(cur);
      // A reached node on a quarantined shard stays in the slice (its
      // id is known from the edge), but cannot be expanded further.
      if (!maybe) continue;
      const auto v = *maybe;
      const LoadedShard& ls = *v.shard;
      // Recorded predecessors: intra-shard edges plus the stored
      // cross-shard in-frontier.
      for (const std::uint32_t e : ls.data.graph.in_edges(v.local)) {
        visit(ls.data.global_ids[ls.data.graph.edges()[e].from]);
      }
      for (const std::uint32_t f : ls.frontier_in_of(v.local)) {
        visit(ls.data.frontier_in[f].from);
      }
      // Data predecessors: latest writers of each page read.
      for (const cpg::Edge& e : latest_writers(pins, m, cur)) {
        visit(e.from);
      }
    }
    frontier.swap(next);
  }
  std::sort(slice.begin(), slice.end());
  return slice;
}

std::vector<cpg::NodeId> forward_slice(ShardStore& store, Degraded& deg,
                                       const Manifest& m, cpg::NodeId start) {
  util::Bitset visited(m.total_nodes);
  std::vector<cpg::NodeId> frontier{start};
  std::vector<cpg::NodeId> next;
  visited.set(start);
  std::vector<cpg::NodeId> slice;
  const auto visit = [&](cpg::NodeId id) {
    if (!visited.test_and_set(id)) next.push_back(id);
  };
  while (!frontier.empty()) {
    next.clear();
    for (const cpg::NodeId cur : frontier) {
      slice.push_back(cur);
      Pins pins(store, deg);
      const auto maybe = pins.try_node(cur);
      // A reached node on a quarantined shard stays in the slice (its
      // id is known from the edge), but cannot be expanded further.
      if (!maybe) continue;
      const auto v = *maybe;
      const LoadedShard& ls = *v.shard;
      for (const std::uint32_t e : ls.data.graph.out_edges(v.local)) {
        visit(ls.data.global_ids[ls.data.graph.edges()[e].to]);
      }
      for (const std::uint32_t f : ls.frontier_out_of(v.local)) {
        visit(ls.data.frontier_out[f].to);
      }
      // Data successors: happens-after readers of the pages written.
      for (const std::uint64_t page : v.node->write_set) {
        const Bucket readers = merged_bucket(pins, m, page,
                                             /*writers=*/false, {v.rank + 1});
        for (const cpg::NodeId reader : readers.nodes) {
          if (!visited.test(reader) && happens_before(pins, cur, reader)) {
            visited.set(reader);
            next.push_back(reader);
          }
        }
      }
    }
    frontier.swap(next);
  }
  std::sort(slice.begin(), slice.end());
  return slice;
}

// --- races ------------------------------------------------------------
//
// A structural replica of analysis/races.cpp: the same page order,
// limit short-circuit, and report emission -- the storage-independent
// pair bookkeeping is literally shared (analysis/race_pairs.h), so
// reports and their truncation point are identical by construction.
//
// Only the gather differs, and it is shard-major: the scan pages (the
// page universe minus the ignored pages, in global order) split into
// batches, and per batch every shard whose page fence meets the batch
// is visited once, under its own pin, while the batch pages' accessor
// entries it holds are copied out. The pin drops before the next shard
// loads, so residency is one shard plus the batch's copies, and a
// batch loads each fence-eligible shard at most once instead of once
// per page (the parallel-sliding-windows discipline of streaming each
// shard once per pass).

using analysis::detail::note_page;
using analysis::detail::PairConflicts;
using analysis::detail::PairMap;

void scan_page(std::uint64_t page, const Bucket& writers,
               const Bucket& readers, PairMap& pairs) {
  // One metadata map per page, built from the buckets themselves, so
  // the O(W^2 + W*R) pair loops never go back through the store.
  struct Meta {
    const cpg::SubComputation* node;
    std::uint32_t rank;
  };
  std::unordered_map<cpg::NodeId, Meta> meta;
  meta.reserve(writers.nodes.size() + readers.nodes.size());
  for (std::size_t i = 0; i < writers.nodes.size(); ++i) {
    meta.try_emplace(writers.nodes[i],
                     Meta{writers.meta[i], writers.ranks[i]});
  }
  for (std::size_t i = 0; i < readers.nodes.size(); ++i) {
    meta.try_emplace(readers.nodes[i],
                     Meta{readers.meta[i], readers.ranks[i]});
  }
  // Graph::happens_before / concurrent on the cached payloads, with
  // the same rank-first fast reject.
  const auto hb = [&](const Meta& a, const Meta& b) {
    if (a.rank >= b.rank) return false;
    if (a.node->thread == b.node->thread) {
      return a.node->alpha < b.node->alpha;
    }
    return a.node->clock.happens_before(b.node->clock);
  };
  const auto conflicts_of = [&](cpg::NodeId a,
                                cpg::NodeId b) -> PairConflicts* {
    const auto key = std::minmax(a, b);
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(key.first) << 32) | key.second;
    if (const auto it = pairs.find(packed); it != pairs.end()) {
      return &it->second;
    }
    const Meta& ma = meta.at(key.first);
    const Meta& mb = meta.at(key.second);
    if (hb(ma, mb) || hb(mb, ma)) return nullptr;  // ordered, not racy
    return &pairs.try_emplace(packed).first->second;
  };
  for (std::size_t i = 0; i < writers.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < writers.nodes.size(); ++j) {
      const cpg::NodeId a = writers.nodes[i];
      const cpg::NodeId b = writers.nodes[j];
      if (writers.meta[i]->thread == writers.meta[j]->thread) continue;
      if (PairConflicts* c = conflicts_of(a, b)) {
        note_page(c->ww, page);
      }
    }
    for (std::size_t j = 0; j < readers.nodes.size(); ++j) {
      const cpg::NodeId w = writers.nodes[i];
      const cpg::NodeId r = readers.nodes[j];
      if (w == r) continue;
      if (writers.meta[i]->thread == readers.meta[j]->thread) continue;
      if (PairConflicts* c = conflicts_of(w, r)) {
        note_page(w < r ? c->wr : c->rw, page);
      }
    }
  }
}

/// Owned node copies keyed by global id. A copy keeps what the pair
/// scan reads -- id, thread, alpha, vector clock -- and, for a limited
/// scan's truncated re-derivation, the page sets; never thunks.
using NodeCopies = std::unordered_map<cpg::NodeId, cpg::SubComputation>;

/// One batch of scan pages, gathered shard-major. The buckets' meta
/// pointers point into `nodes`, which owns one copy per accessor.
struct RaceBatch {
  NodeCopies nodes;
  std::vector<Bucket> writers;  ///< aligned with the batch pages
  std::vector<Bucket> readers;
};

RaceBatch gather_race_batch(ShardStore& store, Degraded& deg,
                            std::span<const std::uint64_t> pages,
                            bool page_sets) {
  const Manifest& m = store.manifest();
  struct Entry {
    std::uint32_t rank;
    const cpg::SubComputation* node;  ///< stable: map nodes never move
  };
  std::vector<std::vector<Entry>> writers(pages.size());
  std::vector<std::vector<Entry>> readers(pages.size());
  RaceBatch batch;
  const auto copy_out = [&](const LoadedShard& ls,
                            std::span<const cpg::NodeId> locals,
                            std::vector<Entry>& out) {
    for (const cpg::NodeId local : locals) {
      const cpg::NodeId id = ls.data.global_ids[local];
      auto [it, fresh] = batch.nodes.try_emplace(id);
      if (fresh) {
        const cpg::SubComputation& src = ls.data.graph.nodes()[local];
        cpg::SubComputation& dst = it->second;
        dst.id = id;
        dst.thread = src.thread;
        dst.alpha = src.alpha;
        dst.clock = src.clock;
        if (page_sets) {
          dst.read_set = src.read_set;
          dst.write_set = src.write_set;
        }
      }
      out.push_back({ls.data.global_ranks[local], &it->second});
    }
  };
  for (const std::uint32_t s : store.visit_order()) {
    const ShardInfo& info = m.shards[s];
    // Fence-pruned without touching the file: some batch page must lie
    // inside the shard's page fence.
    if (info.min_page == kNoPage) continue;
    const auto first =
        std::lower_bound(pages.begin(), pages.end(), info.min_page);
    if (first == pages.end() || *first > info.max_page) continue;
    Pins pins(store, deg);
    const LoadedShard* ls = pins.shard_or_null(s);
    if (ls == nullptr) continue;  // quarantined, degraded answer
    for (auto it = first; it != pages.end() && *it <= info.max_page; ++it) {
      const auto k = static_cast<std::size_t>(it - pages.begin());
      copy_out(*ls, ls->data.graph.page_writers(*it), writers[k]);
      copy_out(*ls, ls->data.graph.page_readers(*it), readers[k]);
    }
  }
  // Per-shard buckets are rank-sorted restrictions of a global
  // permutation, so sorting the union by rank is the unique merge.
  const auto bucket = [](std::vector<Entry>& entries) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.rank < b.rank; });
    Bucket out;
    out.nodes.reserve(entries.size());
    out.ranks.reserve(entries.size());
    out.meta.reserve(entries.size());
    for (const Entry& e : entries) {
      out.nodes.push_back(e.node->id);
      out.ranks.push_back(e.rank);
      out.meta.push_back(e.node);
    }
    return out;
  };
  batch.writers.reserve(pages.size());
  batch.readers.reserve(pages.size());
  for (std::size_t k = 0; k < pages.size(); ++k) {
    batch.writers.push_back(bucket(writers[k]));
    batch.readers.push_back(bucket(readers[k]));
  }
  return batch;
}

std::vector<analysis::RaceReport> find_races(ShardStore& store, Degraded& deg,
                                             const PageSet& ignored_pages,
                                             std::size_t limit) {
  const Manifest& m = store.manifest();
  PageSet ignored = ignored_pages;
  page_set_normalize(ignored);
  std::vector<std::uint64_t> scan;
  std::set_difference(m.pages.begin(), m.pages.end(), ignored.begin(),
                      ignored.end(), std::back_inserter(scan));
  const std::size_t per_batch =
      race_batch_pages(m, store.memory_budget_bytes());
  const auto batch_at = [&](std::size_t begin) {
    return std::span<const std::uint64_t>(scan).subspan(
        begin, std::min(per_batch, scan.size() - begin));
  };

  PairMap pairs;
  NodeCopies kept;  ///< the racy pairs' nodes (limited scans only)
  bool truncated = false;
  if (limit != 0) {
    // Limited scans are scan-order dependent (they stop at a page
    // boundary), so they stay serial, in global page order, and
    // gather nothing once the limit is reached.
    std::size_t scanned = 0;
    while (scanned < scan.size() && pairs.size() < limit) {
      const auto pages = batch_at(scanned);
      RaceBatch batch = gather_race_batch(store, deg, pages,
                                          /*page_sets=*/true);
      for (std::size_t k = 0; k < pages.size() && pairs.size() < limit;
           ++k, ++scanned) {
        scan_page(pages[k], batch.writers[k], batch.readers[k], pairs);
      }
      // The truncated re-derivation reads the racy pairs' page sets
      // after the batch is gone. Which pairs hold which ids does not
      // depend on the map's iteration order.
      for (const auto& [key, conflicts] : pairs) {
        for (const auto id : {static_cast<cpg::NodeId>(key >> 32),
                              static_cast<cpg::NodeId>(key & 0xFFFFFFFF)}) {
          if (!kept.contains(id)) {
            kept.emplace(id, std::move(batch.nodes.at(id)));
          }
        }
      }
    }
    // The page-major loop's flag exactly: the limit was reached while
    // some page of the universe, ignored or not, remained.
    truncated = pairs.size() >= limit && scan[scanned - 1] < m.pages.back();
  } else {
    // Full scan: per batch, the pages fan out over the pool, and the
    // per-worker pair maps merge by min -- commutative, so the report
    // list is identical at every worker, shard, and batch count.
    const auto pool = util::shared_pool();
    util::WorkerLocal<PairMap> local(*pool);
    for (std::size_t begin = 0; begin < scan.size(); begin += per_batch) {
      const auto pages = batch_at(begin);
      const RaceBatch batch = gather_race_batch(store, deg, pages,
                                                /*page_sets=*/false);
      pool->parallel_for(
          0, pages.size(), 32, [&](std::size_t b, std::size_t e, unsigned w) {
            for (std::size_t k = b; k < e; ++k) {
              scan_page(pages[k], batch.writers[k], batch.readers[k],
                        local[w]);
            }
          });
    }
    pairs = std::move(local[0]);
    for (unsigned w = 1; w < pool->worker_count(); ++w) {
      analysis::detail::merge_min(pairs, local[w]);
    }
  }
  // Only the truncated path consults node_of.
  const auto node_of = [&kept](cpg::NodeId id) -> const cpg::SubComputation& {
    return kept.at(id);
  };
  return analysis::detail::emit_reports(node_of, pairs, ignored, truncated,
                                        limit);
}

// --- flow propagation (taint / invalidate) ----------------------------
//
// The level-synchronous fixpoint of analysis/propagation.cpp over the
// *global* topological levels stored in the shard sidecars. Each
// level's delta is the set of pending nodes markable against the
// current bitmap snapshot -- order-independent -- so the rounds, and
// therefore the final marked sets, match the unsharded pass exactly.

struct Flow {
  std::vector<cpg::NodeId> nodes;  ///< ascending
  PageSet pages;
  std::vector<char> node_marked;   ///< dense over global node ids
};

Flow propagate(ShardStore& store, Degraded& deg, const PageSet& seed_pages,
               bool thread_carryover) {
  const Manifest& m = store.manifest();
  Flow result;
  result.pages = seed_pages;
  page_set_normalize(result.pages);
  result.node_marked.assign(m.total_nodes, 0);

  std::vector<char> page_marked(m.pages.size(), 0);
  for (const std::uint64_t page : result.pages) {
    const auto it = std::lower_bound(m.pages.begin(), m.pages.end(), page);
    if (it != m.pages.end() && *it == page) {
      page_marked[static_cast<std::size_t>(it - m.pages.begin())] = 1;
    }
  }
  std::vector<char> thread_marked(m.thread_count, 0);

  struct Delta {
    std::vector<cpg::NodeId> nodes;
    std::vector<std::size_t> pages;  ///< dense global page indices
    std::vector<cpg::ThreadId> threads;
  };
  const auto pool = util::shared_pool();
  util::WorkerLocal<Delta> local(*pool);

  struct PendingNode {
    cpg::NodeId id;
    const cpg::SubComputation* node;
  };
  std::vector<PendingNode> pending;
  std::vector<PendingNode> still_unmarked;

  // Index into the manifest's page universe; m.pages.size() when the
  // page is unknown. Every page of a consistent store is in the
  // universe, but a stale shard file mixed into the directory can
  // pass the load-time checks (those bound ids/levels/threads, not
  // pages) -- an unknown page must be skipped, not written through.
  const auto page_index = [&](std::uint64_t page) {
    const auto it = std::lower_bound(m.pages.begin(), m.pages.end(), page);
    if (it == m.pages.end() || *it != page) return m.pages.size();
    return static_cast<std::size_t>(it - m.pages.begin());
  };

  for (std::uint32_t lvl = 0; lvl < m.level_count; ++lvl) {
    // Pins scope per level: a level's nodes pin only the shards whose
    // level fences cover it, so residency stays bounded by the level's
    // span, not the store.
    Pins pins(store, deg);
    pending.clear();
    for (std::uint32_t s = 0; s < m.shard_count; ++s) {
      const ShardInfo& info = m.shards[s];
      if (info.node_count == 0 || lvl < info.min_level ||
          lvl > info.max_level) {
        continue;
      }
      const LoadedShard* lsp = pins.shard_or_null(s);
      if (lsp == nullptr) continue;  // quarantined, degraded answer
      const LoadedShard& ls = *lsp;
      for (const std::uint32_t local : ls.level_locals(lvl)) {
        pending.push_back(
            {ls.data.global_ids[local], &ls.data.graph.nodes()[local]});
      }
    }
    while (!pending.empty()) {
      pool->parallel_for(
          0, pending.size(), 64,
          [&](std::size_t b, std::size_t e, unsigned worker) {
            Delta& d = local[worker];
            for (std::size_t k = b; k < e; ++k) {
              const PendingNode& p = pending[k];
              bool marked =
                  thread_carryover && thread_marked[p.node->thread] != 0;
              if (!marked) {
                for (const std::uint64_t page : p.node->read_set) {
                  const std::size_t idx = page_index(page);
                  if (idx < page_marked.size() && page_marked[idx] != 0) {
                    marked = true;
                    break;
                  }
                }
              }
              if (!marked) continue;
              d.nodes.push_back(p.id);
              if (thread_carryover) d.threads.push_back(p.node->thread);
              for (const std::uint64_t page : p.node->write_set) {
                const std::size_t idx = page_index(page);
                if (idx < page_marked.size() && page_marked[idx] == 0) {
                  d.pages.push_back(idx);
                }
              }
            }
          });
      bool marks_grew = false;
      for (unsigned w = 0; w < pool->worker_count(); ++w) {
        Delta& d = local[w];
        result.nodes.insert(result.nodes.end(), d.nodes.begin(),
                            d.nodes.end());
        for (const cpg::NodeId id : d.nodes) result.node_marked[id] = 1;
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
            result.pages.push_back(m.pages[idx]);
          }
        }
        d.nodes.clear();
        d.pages.clear();
        d.threads.clear();
      }
      if (!marks_grew) break;
      still_unmarked.clear();
      for (const PendingNode& p : pending) {
        if (result.node_marked[p.id] == 0) still_unmarked.push_back(p);
      }
      pending.swap(still_unmarked);
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  page_set_normalize(result.pages);
  return result;
}

/// Nodes ending in `sink_kind` that carry a mark, ascending global id
/// (the unsharded pass iterates nodes in id order). One shard resident
/// at a time.
std::vector<cpg::NodeId> marked_sinks(ShardStore& store, Degraded& deg,
                                      const Flow& flow,
                                      sync::SyncEventKind sink_kind) {
  const Manifest& m = store.manifest();
  std::vector<cpg::NodeId> sinks;
  for (std::uint32_t s = 0; s < m.shard_count; ++s) {
    Pins pins(store, deg);
    const LoadedShard* lsp = pins.shard_or_null(s);
    if (lsp == nullptr) continue;  // quarantined, degraded answer
    const LoadedShard& ls = *lsp;
    for (const cpg::SubComputation& node : ls.data.graph.nodes()) {
      const cpg::NodeId global = ls.data.global_ids[node.id];
      if (node.end.kind == sink_kind && flow.node_marked[global] != 0) {
        sinks.push_back(global);
      }
    }
  }
  std::sort(sinks.begin(), sinks.end());
  return sinks;
}

// --- critical path ----------------------------------------------------

query::CriticalPathResult critical_path(ShardStore& store, Degraded& deg) {
  const Manifest& m = store.manifest();
  query::CriticalPathResult out;
  out.total_nodes = m.total_nodes;
  if (m.total_nodes == 0) return out;
  // Rank-range shards are topological sections: every dependence
  // points into the same or a later shard, so one forward pass with a
  // single shard resident computes the same DP as the whole-graph
  // topological sweep. The predecessor tie-break (first incoming edge
  // in *global* edge order achieving the max) is preserved by merging
  // intra-shard and frontier in-edges on their stored global indices.
  std::vector<std::uint64_t> depth(m.total_nodes, 1);
  std::vector<cpg::NodeId> pred(m.total_nodes, cpg::kInvalidNode);
  for (std::uint32_t s = 0; s < m.shard_count; ++s) {
    Pins pins(store, deg);
    const LoadedShard* lsp = pins.shard_or_null(s);
    if (lsp == nullptr) continue;  // quarantined, degraded answer
    const LoadedShard& ls = *lsp;
    const cpg::Graph& g = ls.data.graph;
    for (const cpg::NodeId local : g.topological_view()) {
      const cpg::NodeId gv = ls.data.global_ids[local];
      const auto relax = [&](cpg::NodeId u) {
        if (depth[u] + 1 > depth[gv]) {
          depth[gv] = depth[u] + 1;
          pred[gv] = u;
        }
      };
      const auto locals = g.in_edges(local);
      const auto fins = ls.frontier_in_of(local);
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < locals.size() || j < fins.size()) {
        const bool take_local =
            j >= fins.size() ||
            (i < locals.size() &&
             ls.data.edge_globals[locals[i]] <
                 ls.data.frontier_in[fins[j]].edge_index);
        if (take_local) {
          relax(ls.data.global_ids[g.edges()[locals[i]].from]);
          ++i;
        } else {
          relax(ls.data.frontier_in[fins[j]].from);
          ++j;
        }
      }
    }
  }
  const auto tail = static_cast<cpg::NodeId>(
      std::max_element(depth.begin(), depth.end()) - depth.begin());
  for (cpg::NodeId v = tail; v != cpg::kInvalidNode; v = pred[v]) {
    out.nodes.push_back(v);
  }
  std::reverse(out.nodes.begin(), out.nodes.end());
  return out;
}

}  // namespace

std::size_t race_batch_pages(const Manifest& m, std::uint64_t budget) {
  const std::size_t all = std::max<std::size_t>(m.pages.size(), 1);
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  for (const ShardInfo& info : m.shards) {
    total += info.decoded_bytes;
    largest = std::max(largest, info.decoded_bytes);
  }
  const std::uint64_t room = std::max(budget, largest);
  if (budget == 0 || room >= total) return all;
  const auto share = static_cast<std::size_t>(
      static_cast<long double>(m.pages.size()) * room / total);
  return std::clamp<std::size_t>(share, 1, all);
}

ShardBackend::ShardBackend(std::shared_ptr<ShardStore> store,
                           bool allow_degraded)
    : store_(std::move(store)), allow_degraded_(allow_degraded) {}

Result<query::Execution> ShardBackend::execute(const Query& q) const {
  ShardStore& store = *store_;
  const Manifest& m = store.manifest();
  const std::size_t node_count = m.total_nodes;
  const auto valid_node = [&](cpg::NodeId id) { return id < node_count; };

  Degraded deg{allow_degraded_};
  // The anchor of a node-rooted query must resolve even in degraded
  // mode: without it there is no partial answer, only a wrong one.
  const auto check_anchor = [&](cpg::NodeId id) {
    Pins pins(store, deg);
    (void)pins.node(id);  // throws StatusError if its shard is unusable
  };

  try {
    Result<QueryResult> r = std::visit(
        Overloaded{
            [&](const query::BackwardSliceQuery& s) -> Result<QueryResult> {
              if (!valid_node(s.node)) {
                return node_range_error(s.node, node_count);
              }
              check_anchor(s.node);
              return QueryResult(
                  query::NodeListResult{backward_slice(store, deg, m, s.node)});
            },
            [&](const query::ForwardSliceQuery& s) -> Result<QueryResult> {
              if (!valid_node(s.node)) {
                return node_range_error(s.node, node_count);
              }
              check_anchor(s.node);
              return QueryResult(
                  query::NodeListResult{forward_slice(store, deg, m, s.node)});
            },
            [&](const query::LatestWritersQuery& s) -> Result<QueryResult> {
              if (!valid_node(s.node)) {
                return node_range_error(s.node, node_count);
              }
              Pins pins(store, deg);
              return QueryResult(
                  query::EdgeListResult{latest_writers(pins, m, s.node)});
            },
            [&](const query::DataDependenciesQuery& s) -> Result<QueryResult> {
              if (!valid_node(s.node)) {
                return node_range_error(s.node, node_count);
              }
              Pins pins(store, deg);
              return QueryResult(
                  query::EdgeListResult{data_dependencies(pins, m, s.node)});
            },
            [&](const query::PageAccessorsQuery& s) -> Result<QueryResult> {
              if (!page_in_universe(m, s.page)) {
                return untouched_page_error(s.page);
              }
              Pins pins(store, deg);
              query::PageAccessorsResult out;
              out.page = s.page;
              out.writers =
                  merged_bucket(pins, m, s.page, /*writers=*/true).nodes;
              out.readers =
                  merged_bucket(pins, m, s.page, /*writers=*/false).nodes;
              return QueryResult(std::move(out));
            },
            [&](const query::HappensBeforeQuery& s) -> Result<QueryResult> {
              if (!valid_node(s.first)) {
                return node_range_error(s.first, node_count);
              }
              if (!valid_node(s.second)) {
                return node_range_error(s.second, node_count);
              }
              Pins pins(store, deg);
              query::HappensBeforeResult out;
              if (s.first == s.second) {
                out.ordering = query::Ordering::kEqual;
              } else if (happens_before(pins, s.first, s.second)) {
                out.ordering = query::Ordering::kBefore;
              } else if (happens_before(pins, s.second, s.first)) {
                out.ordering = query::Ordering::kAfter;
              } else {
                out.ordering = query::Ordering::kConcurrent;
              }
              return QueryResult(out);
            },
            [&](const query::RacesQuery& s) -> Result<QueryResult> {
              return QueryResult(query::RaceListResult{
                  find_races(store, deg, s.ignored_pages,
                             static_cast<std::size_t>(s.limit))});
            },
            [&](const query::TaintQuery& s) -> Result<QueryResult> {
              const Flow flow = propagate(store, deg, s.seed_pages,
                                          s.track_register_carryover);
              query::FlowResult out;
              out.sinks = marked_sinks(store, deg, flow, s.sink_kind);
              out.nodes = flow.nodes;
              out.pages = flow.pages;
              return QueryResult(std::move(out));
            },
            [&](const query::InvalidateQuery& s) -> Result<QueryResult> {
              Flow flow = propagate(store, deg, s.changed_pages,
                                    /*thread_carryover=*/true);
              query::FlowResult out;
              out.nodes = std::move(flow.nodes);
              out.pages = std::move(flow.pages);
              return QueryResult(std::move(out));
            },
            [&](const query::CriticalPathQuery&) -> Result<QueryResult> {
              return QueryResult(critical_path(store, deg));
            },
            [&](const query::StatsQuery&) -> Result<QueryResult> {
              return QueryResult(query::StatsResult{m.stats});
            },
        },
        q);
    if (!r.ok()) return r.status();
    return query::Execution{std::move(r).value(),
                            deg.hit.load(std::memory_order_relaxed)};
  } catch (const StatusError& e) {
    // A quarantined shard (or store inconsistency) surfaced mid-query:
    // hand the typed Status back -- kUnavailable names the shard and
    // file so the operator knows what to fsck.
    return e.status();
  }
}

}  // namespace inspector::shard
