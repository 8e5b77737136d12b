// ShardedQueryEngine: the unsharded Query surface served out-of-core.
//
// ShardBackend implements query::QueryBackend over a ShardStore, and
// ShardedQueryEngine is a query::QueryEngine wired to one -- sessions,
// cursors, caching, pagination, and batched fan-out are all inherited,
// so a reply stream (cursor page boundaries included) is bit-identical
// to the unsharded engine on the same history at every shard count and
// every worker count. Dispatch by query shape:
//
//   - page-local queries (latest_writers, data_dependencies,
//     page_accessors, happens_before) route to the owning shards via
//     the manifest fences and merge per-shard inverted-index buckets
//     in global hb-rank order. Gathers are rank-fenced: a reader's
//     writers can only rank below it, so shards whose rank fence lies
//     wholly above the reader are never opened;
//   - traversal queries (slices) run breadth-first waves whose
//     frontier sets cross shards through the stored edge frontier
//     (forward_slice gathers only readers ranked above the node);
//   - flow queries (taint, invalidate) run the same level-synchronous
//     fixpoint as analysis/propagation.cpp over the *global*
//     topological levels, scanning each level's resident shards
//     chunk-parallel on the shared util::TaskPool;
//   - races gather shard-major: the scan pages split into batches
//     (race_batch_pages), and each batch visits every shard whose page
//     fence meets it once, copying out the batch's accessors before
//     the next shard loads -- residency is one shard plus the batch's
//     copies. Pages then scan in global order (parallel when
//     unlimited, with the same commutative min-merge as
//     analysis/races.cpp);
//   - critical path is one forward pass over the shards in rank order
//     (rank ranges are topological sections, so dependence values only
//     flow to later shards);
//   - stats answers straight from the manifest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "query/engine.h"
#include "shard/store.h"

namespace inspector::shard {

/// Scan pages per race batch: the share of the page universe whose
/// payload -- the store's decoded bytes, spread evenly over its pages
/// -- fits max(budget, largest shard), at least one page. An unlimited
/// budget (0) scans the whole universe as one batch.
[[nodiscard]] std::size_t race_batch_pages(const Manifest& m,
                                           std::uint64_t budget);

class ShardBackend final : public query::QueryBackend {
 public:
  /// With allow_degraded, queries that touch a quarantined shard skip
  /// it and return partial results carrying Execution::degraded (the
  /// wire marks them "degraded":true) instead of failing kUnavailable.
  /// Queries whose anchor node lives on the quarantined shard still
  /// fail -- there is no partial answer to give. Replies that never
  /// touch a quarantined shard are byte-identical either way.
  explicit ShardBackend(std::shared_ptr<ShardStore> store,
                        bool allow_degraded = false);

  [[nodiscard]] Result<query::Execution> execute(
      const query::Query& q) const override;

  [[nodiscard]] const ShardStore& store() const noexcept { return *store_; }

 private:
  std::shared_ptr<ShardStore> store_;
  bool allow_degraded_ = false;
};

class ShardedQueryEngine : public query::QueryEngine {
 public:
  explicit ShardedQueryEngine(std::shared_ptr<ShardStore> store,
                              query::EngineOptions options = {},
                              bool allow_degraded = false)
      : query::QueryEngine(
            std::make_shared<const ShardBackend>(store, allow_degraded),
            options),
        store_(std::move(store)) {}

  [[nodiscard]] const ShardStore& store() const noexcept { return *store_; }

 private:
  std::shared_ptr<ShardStore> store_;
};

}  // namespace inspector::shard
