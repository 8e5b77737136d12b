// ShardedQueryEngine: the unsharded Query surface served out-of-core.
//
// ShardBackend implements query::QueryBackend over a ShardStore, and
// ShardedQueryEngine is a query::QueryEngine wired to one -- sessions,
// cursors, caching, pagination, and batched fan-out are all inherited.
// The backend runs the same query::run_query and the same provenance
// kernels (analysis/kernels.h) as the in-memory backend, over the
// shard model of the kernels' view, so a reply stream (cursor page
// boundaries included) is bit-identical to the unsharded engine on the
// same history at every shard count and every worker count. The model
// decides only how data streams in:
//
//   - page buckets merge per-shard inverted-index buckets in global
//     hb-rank order, opening only the shards whose page fence covers
//     the page and whose rank fence meets the caller's rank window (a
//     reader's writers all rank below it);
//   - neighbour walks merge intra-shard edges with the stored
//     cross-shard frontier in global edge order;
//   - levels visit the shards whose level fence covers the level, and
//     each shard is one topological section (rank ranges are
//     topological sections, so dependence values only flow to later
//     shards);
//   - race scans gather shard-major: the scan pages split into runs
//     (race_batch_pages), and each run visits every shard whose page
//     fence meets it once, copying out the run's accessors before the
//     next shard loads -- residency is one shard plus the run's copies;
//   - stats answer straight from the manifest.
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
