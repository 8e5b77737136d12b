#include "shard/engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/kernels.h"
#include "query/run_query.h"
#include "util/status.h"

namespace inspector::shard {

namespace {

using analysis::NodeRef;
using analysis::PageRef;
using analysis::RankWindow;

/// A pin set: shards load on first touch and stay alive (and
/// pointer-stable) until the Pins object dies. The store never evicts
/// a pinned shard; a miss it cannot make room for is served uncached
/// and lives exactly as long as this pin. Scope discipline is what
/// keeps the memory budget honest -- Pins is the shard model's
/// residency Scope, and the kernels open one per node expansion, per
/// level and per section, never per operation, so residency is bounded
/// by one unit of work plus the store's budgeted cache, and a pin
/// released between units frees the cache for the next. The store
/// counts uncached-but-pinned shards in Stats::peak_resident_bytes, so
/// a pass that outgrows its scope shows up in the numbers instead of
/// hiding. Page gathers pin only the shards whose rank fence meets the
/// caller's window (RankWindow).
/// Load failures (including a corrupt compressed payload, surfaced by
/// the store as a typed Status) throw StatusError here; the backend's
/// execute() boundary converts the escape back into its typed Status.
///
/// Degraded mode: every execution shares one Degraded record. When
/// `allow` is set (the serving process opted in), lenient shard() and
/// node() lookups swallow a quarantined shard -- they flag
/// `hit` and return nothing, and the caller skips that slice of the
/// answer. Strict lookups always throw: query anchors have no partial
/// answer to fall back on.
struct Degraded {
  bool allow = false;
  std::atomic<bool> hit{false};  ///< a quarantined shard was skipped
};

/// A node reference that also carries its shard and local id, so the
/// neighbour walk needs no second lookup.
struct ShardRef : NodeRef {
  const LoadedShard* shard = nullptr;
  std::uint32_t local = 0;
};

ShardRef ref_of(const LoadedShard& ls, std::uint32_t local) {
  return {{ls.data.global_ids[local], ls.data.global_ranks[local],
           &ls.data.nodes[local]},
          &ls,
          local};
}

class Pins {
 public:
  Pins(ShardStore& store, Degraded& degraded)
      : store_(store),
        degraded_(degraded),
        held_(store.manifest().shard_count) {}

  /// The node; with `lenient`, nullopt if its shard is quarantined and
  /// the execution allows degraded answers. A resident shard that lacks
  /// the node is store inconsistency and always throws.
  std::optional<ShardRef> node(cpg::NodeId global, bool lenient) {
    const std::uint32_t shard_index = store_.shard_of(global);
    const LoadedShard* ls = shard(shard_index, lenient);
    if (ls == nullptr) return std::nullopt;
    return resolve(*ls, shard_index, global);
  }

  /// The shard; with `lenient`, nullptr if it is quarantined and the
  /// execution allows degraded answers (Degraded::hit is flagged). Any
  /// other failure throws.
  const LoadedShard* shard(std::uint32_t index, bool lenient) {
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

 private:
  static ShardRef resolve(const LoadedShard& ls, std::uint32_t shard_index,
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
    return ref_of(ls, *local);
  }

  ShardStore& store_;
  Degraded& degraded_;
  std::vector<std::shared_ptr<const LoadedShard>> held_;
};

/// One page's accessor list merged across its owning shards, ascending
/// global hb-rank: exactly the slice of the bucket the unsharded
/// inverted index holds (per-shard buckets are rank-sorted
/// restrictions and rank is a global permutation, so the merge is
/// unique). Payload pointers stay valid while the building Pins -- or,
/// for race batches, the batch owning the node copies -- lives.
struct Bucket {
  std::vector<NodeRef> entries;

  [[nodiscard]] std::size_t size() const noexcept { return entries.size(); }
  [[nodiscard]] NodeRef ref(std::size_t i) const { return entries[i]; }

  void sort_by_rank() {
    std::sort(entries.begin(), entries.end(),
              [](const NodeRef& a, const NodeRef& b) { return a.rank < b.rank; });
  }
};

Bucket merged_bucket(ShardStore& store, Pins& pins, PageRef page,
                     bool writers, RankWindow window) {
  const Manifest& m = store.manifest();
  Bucket out;
  // Cached shards first (ShardStore::visit_order): pinning them before
  // any miss loads keeps the misses from evicting them. The rank sort
  // makes the merge independent of the order.
  for (const std::uint32_t s : store.visit_order()) {
    const ShardInfo& info = m.shards[s];
    // Fence-pruned without touching the file: the page fence must
    // cover the page, and the rank fence must meet the window (the
    // store validated at open that rank fences tile the rank space).
    if (info.min_page == kNoPage || page.page < info.min_page ||
        page.page > info.max_page || info.rank_hi <= window.lo ||
        info.rank_lo >= window.hi) {
      continue;
    }
    const LoadedShard* ls = pins.shard(s, /*lenient=*/true);
    if (ls == nullptr) continue;  // quarantined, degraded answer
    const auto span = writers ? ls->page_writers(page.index)
                              : ls->page_readers(page.index);
    for (const std::uint32_t local : span) {
      const std::uint32_t rank = ls->data.global_ranks[local];
      if (rank < window.lo || rank >= window.hi) continue;
      out.entries.push_back(ref_of(*ls, local));
    }
  }
  out.sort_by_rank();
  return out;
}

/// One run of scan pages, gathered shard-major: every shard whose page
/// fence meets the run is visited once, under its own pin, while the
/// run pages' accessors it holds are copied out. The pin drops before
/// the next shard loads, so residency is one shard plus the run's
/// copies, and a run loads each fence-eligible shard at most once
/// instead of once per page (the parallel-sliding-windows discipline
/// of streaming each shard once per pass).
struct RaceBatch {
  /// Owned node copies keyed by global id: what the pair scan reads --
  /// id, thread, alpha, vector clock -- and, for a limited scan, the
  /// page sets; never thunks. The buckets point into it.
  std::unordered_map<cpg::NodeId, cpg::SubComputation> nodes;
  std::vector<Bucket> writer_buckets;  ///< aligned with the run's pages
  std::vector<Bucket> reader_buckets;

  [[nodiscard]] const Bucket& writers(std::size_t k) const {
    return writer_buckets[k];
  }
  [[nodiscard]] const Bucket& readers(std::size_t k) const {
    return reader_buckets[k];
  }
  [[nodiscard]] const cpg::SubComputation& node(cpg::NodeId id) const {
    return nodes.at(id);
  }
};

RaceBatch gather_race_batch(ShardStore& store, Degraded& deg,
                            std::span<const PageRef> pages, bool page_sets) {
  const Manifest& m = store.manifest();
  RaceBatch batch;
  batch.writer_buckets.resize(pages.size());
  batch.reader_buckets.resize(pages.size());
  const auto copy_out = [&](const LoadedShard& ls,
                            std::span<const std::uint32_t> locals,
                            Bucket& out) {
    for (const std::uint32_t local : locals) {
      const cpg::NodeId id = ls.data.global_ids[local];
      auto [it, fresh] = batch.nodes.try_emplace(id);
      if (fresh) {
        const cpg::SubComputation& src = ls.data.nodes[local];
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
      // Map nodes never move, so the payload pointer stays valid.
      out.entries.push_back({id, ls.data.global_ranks[local], &it->second});
    }
  };
  const auto page_below = [](const PageRef& p, std::uint64_t page) {
    return p.page < page;
  };
  for (const std::uint32_t s : store.visit_order()) {
    const ShardInfo& info = m.shards[s];
    // Fence-pruned without touching the file: some run page must lie
    // inside the shard's page fence.
    if (info.min_page == kNoPage) continue;
    const auto first = std::lower_bound(pages.begin(), pages.end(),
                                        info.min_page, page_below);
    if (first == pages.end() || first->page > info.max_page) continue;
    Pins pins(store, deg);
    const LoadedShard* ls = pins.shard(s, /*lenient=*/true);
    if (ls == nullptr) continue;  // quarantined, degraded answer
    for (auto it = first; it != pages.end() && it->page <= info.max_page;
         ++it) {
      const auto k = static_cast<std::size_t>(it - pages.begin());
      copy_out(*ls, ls->page_writers(it->index), batch.writer_buckets[k]);
      copy_out(*ls, ls->page_readers(it->index), batch.reader_buckets[k]);
    }
  }
  for (std::size_t k = 0; k < pages.size(); ++k) {
    batch.writer_buckets[k].sort_by_rank();
    batch.reader_buckets[k].sort_by_rank();
  }
  return batch;
}

/// Recorded neighbours of a shard-resident node in global edge-index
/// order: its intra-shard edges and its stored cross-shard frontier
/// edges, merged on their global indices (both lists ascend).
template <typename Fn>
void for_each_recorded(const LoadedShard& ls,
                       std::span<const std::uint32_t> locals,
                       std::span<const std::uint32_t> frontier_ids,
                       const std::vector<FrontierEdge>& frontier,
                       bool incoming, Fn&& fn) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < locals.size() || j < frontier_ids.size()) {
    const bool take_local =
        j >= frontier_ids.size() ||
        (i < locals.size() && ls.data.edge_globals[locals[i]] <
                                  frontier[frontier_ids[j]].edge_index);
    if (take_local) {
      const cpg::Edge& e = ls.data.edges[locals[i++]];
      fn(ls.data.global_ids[incoming ? e.from : e.to]);
    } else {
      const FrontierEdge& f = frontier[frontier_ids[j++]];
      fn(incoming ? f.from : f.to);
    }
  }
}

/// The shard model of the provenance view (analysis/kernels.h). Node
/// lookups and page buckets go through the caller's Pins; a level
/// visits only the shards whose level fence covers it; each shard is
/// one section (rank-range shards are topological sections: every
/// recorded edge points into the same or a later shard); race runs are
/// gathered shard-major and sized from the manifest
/// (race_batch_pages). A quarantined shard is skipped in degraded mode
/// and throws otherwise.
class ShardView {
 public:
  using Scope = Pins;
  using Ref = ShardRef;

  ShardView(ShardStore& store, Degraded& degraded)
      : store_(store), m_(store.manifest()), degraded_(degraded) {}

  [[nodiscard]] Pins scope() const { return Pins(store_, degraded_); }
  [[nodiscard]] std::size_t node_count() const { return m_.total_nodes; }
  [[nodiscard]] std::size_t thread_count() const { return m_.thread_count; }
  [[nodiscard]] std::span<const std::uint64_t> pages() const {
    return m_.pages;
  }
  /// A store is cut from an acyclic graph (its rank ranges are
  /// topological sections), so there is no cyclic graph to report.
  [[nodiscard]] bool cyclic() const { return false; }
  [[nodiscard]] cpg::GraphStats stats() const { return m_.stats; }

  [[nodiscard]] Ref node(Pins& pins, cpg::NodeId id) const {
    return *pins.node(id, /*lenient=*/false);
  }
  [[nodiscard]] std::optional<Ref> try_node(Pins& pins, cpg::NodeId id) const {
    return pins.node(id, /*lenient=*/true);
  }
  [[nodiscard]] Bucket bucket(Pins& pins, PageRef page, bool writers,
                              RankWindow window) const {
    return merged_bucket(store_, pins, page, writers, window);
  }

  template <typename Fn>
  void for_each_in(const Ref& v, Fn&& fn) const {
    for_each_recorded(*v.shard, v.shard->in_edges(v.local),
                      v.shard->frontier_in_of(v.local),
                      v.shard->data.frontier_in, /*incoming=*/true, fn);
  }
  template <typename Fn>
  void for_each_out(const Ref& v, Fn&& fn) const {
    for_each_recorded(*v.shard, v.shard->out_edges(v.local),
                      v.shard->frontier_out_of(v.local),
                      v.shard->data.frontier_out, /*incoming=*/false, fn);
  }

  [[nodiscard]] std::size_t level_count() const { return m_.level_count; }
  template <typename Fn>
  void level(Pins& pins, std::size_t lvl, Fn&& fn) const {
    for (std::uint32_t s = 0; s < m_.shard_count; ++s) {
      const ShardInfo& info = m_.shards[s];
      if (info.node_count == 0 || lvl < info.min_level ||
          lvl > info.max_level) {
        continue;
      }
      const LoadedShard* ls = pins.shard(s, /*lenient=*/true);
      if (ls == nullptr) continue;  // quarantined, degraded answer
      for (const std::uint32_t local :
           ls->level_locals(static_cast<std::uint32_t>(lvl))) {
        fn(ref_of(*ls, local));
      }
    }
  }

  [[nodiscard]] std::size_t section_count() const { return m_.shard_count; }
  template <typename Fn>
  void section(Pins& pins, std::size_t s, Fn&& fn) const {
    const LoadedShard* ls = pins.shard(static_cast<std::uint32_t>(s), /*lenient=*/true);
    if (ls == nullptr) return;  // quarantined, degraded answer
    for (const std::uint32_t local : ls->level_order()) {
      fn(ref_of(*ls, local));
    }
  }

  [[nodiscard]] std::size_t race_batch_pages() const {
    return shard::race_batch_pages(m_, store_.memory_budget_bytes());
  }
  [[nodiscard]] RaceBatch race_batch(std::span<const PageRef> pages,
                                     bool page_sets) const {
    return gather_race_batch(store_, degraded_, pages, page_sets);
  }

 private:
  ShardStore& store_;
  const Manifest& m_;
  Degraded& degraded_;
};

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

Result<query::Execution> ShardBackend::execute(const query::Query& q) const {
  Degraded deg{allow_degraded_};
  try {
    Result<query::QueryResult> r =
        query::run_query(ShardView(*store_, deg), q);
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
