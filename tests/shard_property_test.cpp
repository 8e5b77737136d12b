// Sharded replies are byte-identical to the unsharded engine.
//
// The contract of src/shard/: for any captured history, a
// ShardedQueryEngine over a store written at any shard count serves
// the exact reply stream -- per-query statuses, payload bytes, cursor
// ids, and cursor page boundaries -- the unsharded QueryEngine serves
// from the in-memory graph, at every worker count. That holds for
// every way a store can exist on disk: written raw, written with
// LZ-compressed payloads, grown by an incremental append, or both.
// Randomized histories come from tests/history_fixtures.h; the
// serialized-session shape mirrors tests/query_determinism_test.cpp
// so the two contracts cannot drift apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cpg/graph.h"
#include "history_fixtures.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "snapshot/compress.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using namespace inspector::query;
namespace fixtures = inspector::fixtures;

/// One mixed batch -- paginated list queries, scalar queries, and
/// deliberately invalid requests -- followed by a full drain of every
/// cursor, all serialized to wire bytes.
std::string serialized_session(QueryEngine& engine, cpg::NodeId last,
                               std::uint64_t first_page) {
  const auto paged = [](Query q, std::uint64_t page_size) {
    QueryOptions options;
    options.page_size = page_size;
    return QueryEngine::BatchItem{std::move(q), options};
  };
  const std::vector<QueryEngine::BatchItem> items = {
      paged(BackwardSliceQuery{last}, 7),
      paged(ForwardSliceQuery{0}, 5),
      paged(RacesQuery{}, 13),
      {RacesQuery{3, {first_page}}, {}},  // limited + ignored pages
      paged(TaintQuery{{0, 3, 7}, true}, 9),
      {TaintQuery{{0, 3, 7}, false}, {}},  // no register carry-over
      paged(InvalidateQuery{{0, 3, 7}}, 11),
      paged(CriticalPathQuery{}, 6),
      {StatsQuery{}, {}},
      {HappensBeforeQuery{0, last}, {}},
      paged(PageAccessorsQuery{first_page}, 4),
      paged(LatestWritersQuery{last}, 3),
      paged(DataDependenciesQuery{last}, 3),
      {BackwardSliceQuery{static_cast<cpg::NodeId>(1u << 30)}, {}},  // error
      {PageAccessorsQuery{0xDEADBEEF}, {}},                          // error
  };
  const auto replies = engine.run_batch(QueryEngine::kDefaultSession, items);

  std::string out;
  std::uint64_t id = 1;
  std::vector<std::uint64_t> cursors;
  for (const auto& reply : replies) {
    out += wire::serialize_reply(id++, reply);
    out += '\n';
    if (reply.ok() && reply->cursor != 0) cursors.push_back(reply->cursor);
  }
  // Drain every cursor to exhaustion, plus one fetch past the end so
  // the kExhausted reply bytes are part of the comparison too.
  for (const std::uint64_t cursor : cursors) {
    while (true) {
      const auto page = engine.next(cursor);
      out += wire::serialize_reply(id++, page);
      out += '\n';
      if (!page.ok() || !page->has_more) break;
    }
    out += wire::serialize_reply(id++, engine.next(cursor));
    out += '\n';
  }
  return out;
}

std::string store_dir(std::uint64_t seed, std::uint32_t shards,
                      unsigned workers) {
  return ::testing::TempDir() + "shard_prop_" + std::to_string(seed) + "_" +
         std::to_string(shards) + "_" + std::to_string(workers);
}

class ShardProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardProperty, RepliesIdenticalAcrossShardAndWorkerCounts) {
  fixtures::ThreadCountGuard guard;
  const std::uint64_t seed = GetParam();

  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(seed);
  const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
  const std::uint64_t first_page =
      source.page_count() > 0 ? source.pages()[0] : 0;
  std::string reference;
  {
    QueryEngine engine(std::make_shared<const cpg::Graph>(source));
    reference = serialized_session(engine, last, first_page);
  }
  ASSERT_FALSE(reference.empty());

  for (const std::uint32_t shards : {1u, 2u, 7u}) {
    for (const unsigned workers : {1u, 8u}) {
      util::set_analysis_threads(workers);
      // Rebuild the history and the store under this worker count too:
      // the plan, the shard payloads, and the replies must all be
      // independent of the pool size.
      const cpg::Graph graph = fixtures::random_history(seed);
      for (const auto codec :
           {shard::ShardCodec::kRaw, shard::ShardCodec::kLz}) {
        const std::string dir =
            store_dir(seed, shards, workers) +
            (codec == shard::ShardCodec::kLz ? "_lz" : "");
        const auto manifest = shard::write_store(
            graph, dir, shard::PlanOptions{shards}, codec);
        ASSERT_TRUE(manifest.ok()) << manifest.status().message();
        EXPECT_EQ(manifest->shard_count, shards);
        EXPECT_EQ(manifest->total_nodes, graph.nodes().size());

        auto store = shard::ShardStore::open(dir);
        ASSERT_TRUE(store.ok()) << store.status().message();
        shard::ShardedQueryEngine engine(std::move(store).value());
        EXPECT_EQ(serialized_session(engine, last, first_page), reference)
            << "seed " << seed << ", " << shards << " shard(s), " << workers
            << " worker(s), codec "
            << (codec == shard::ShardCodec::kLz ? "lz" : "raw");
      }
    }
  }
}

/// A races query that scans only pages [lo, lo + k) of `pages`: every
/// other page of the universe is ignored.
RacesQuery window_races(std::span<const std::uint64_t> pages, std::size_t lo,
                        std::size_t k, std::uint64_t limit) {
  RacesQuery q;
  q.limit = limit;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (i < lo || i >= lo + k) q.ignored_pages.push_back(pages[i]);
  }
  return q;
}

// Window-scoped limited races -- the shape of an analyst asking "do
// these pages race?" -- against the in-memory engine. The sharded scan
// gathers in batches of scan pages (shard::race_batch_pages), so the
// windows are cut around the batch size of each store, with limits
// taken from the in-memory racy-pair counts of window prefixes: c(j)
// pairs after the window's first j pages. Each store is served twice:
// with no budget (one batch) and with a one-byte budget, which leaves
// room for the largest shard only and so cuts the most batches.
TEST_P(ShardProperty, WindowLimitedRacesIdenticalAcrossShardAndWorkerCounts) {
  fixtures::ThreadCountGuard guard;
  const std::uint64_t seed = GetParam();
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(seed);
  const std::span<const std::uint64_t> pages = source.pages();
  ASSERT_GE(pages.size(), 8u);
  QueryEngine memory(std::make_shared<const cpg::Graph>(source));
  // Ignored pages lie on both sides of every window.
  const std::size_t lo = pages.size() / 4;
  const std::size_t k_max = pages.size() - lo - 1;
  std::vector<std::uint64_t> c(k_max + 1, 0);
  for (std::size_t j = 1; j <= k_max; ++j) {
    const auto full = memory.run(window_races(pages, lo, j, 0));
    ASSERT_TRUE(full.ok());
    c[j] = full->total_items;
  }
  // Window lengths in [from, to] whose last page adds pairs, ascending.
  const auto growth = [&](std::size_t from, std::size_t to) {
    std::vector<std::size_t> out;
    for (std::size_t j = std::max<std::size_t>(from, 1); j <= to; ++j) {
      if (c[j] > c[j - 1]) out.push_back(j);
    }
    return out;
  };

  std::size_t straddled = 0;
  std::size_t reached_on_last_page = 0;
  for (const std::uint32_t shards : {1u, 2u, 7u}) {
    for (const unsigned workers : {1u, 8u}) {
      util::set_analysis_threads(workers);
      for (const auto codec :
           {shard::ShardCodec::kRaw, shard::ShardCodec::kLz}) {
        const std::string dir =
            store_dir(seed, shards, workers) + "_window" +
            (codec == shard::ShardCodec::kLz ? "_lz" : "");
        const auto manifest = shard::write_store(
            source, dir, shard::PlanOptions{shards}, codec);
        ASSERT_TRUE(manifest.ok()) << manifest.status().message();
        for (const std::uint64_t budget : {0ull, 1ull}) {
          shard::StoreOptions options;
          options.memory_budget_bytes = budget;
          auto store = shard::ShardStore::open(dir, options);
          ASSERT_TRUE(store.ok()) << store.status().message();
          shard::ShardedQueryEngine engine(std::move(store).value(),
                                           EngineOptions{0});
          const std::size_t batch = shard::race_batch_pages(*manifest, budget);
          const std::size_t one = std::min(batch, k_max);
          std::vector<std::pair<std::string, RacesQuery>> cases;
          // The limit is reached on the window's last page, with
          // ignored pages after it: the scan stops there, truncated.
          if (const auto g = growth(1, one); !g.empty()) {
            cases.emplace_back("last page",
                               window_races(pages, lo, g.back(), c[g.back()]));
            ++reached_on_last_page;
          }
          // The limit is reached mid-window.
          if (const auto g = growth(1, one - 1); !g.empty()) {
            cases.emplace_back(
                "mid-window", window_races(pages, lo, one, c[g[g.size() / 2]]));
          }
          // The limit is never reached.
          cases.emplace_back("unreached",
                             window_races(pages, lo, one, c[one] + 1));
          // The window straddles a batch boundary: the limit is
          // reached in the second batch, or not at all.
          if (batch < k_max) {
            const std::size_t k = std::min(k_max, batch + (batch + 1) / 2);
            if (const auto g = growth(batch + 1, k); !g.empty()) {
              cases.emplace_back("straddle, reached",
                                 window_races(pages, lo, k, c[g.front()]));
            }
            cases.emplace_back("straddle, unreached",
                               window_races(pages, lo, k, c[k] + 1));
            ++straddled;
          }
          for (const auto& [name, q] : cases) {
            EXPECT_EQ(wire::serialize_reply(1, engine.run(q)),
                      wire::serialize_reply(1, memory.run(q)))
                << name << " (limit " << q.limit << "): seed " << seed
                << ", " << shards << " shard(s), " << workers
                << " worker(s), budget " << budget << ", batch " << batch
                << ", codec "
                << (codec == shard::ShardCodec::kLz ? "lz" : "raw");
          }
        }
      }
    }
  }
  RecordProperty("straddled", std::to_string(straddled));
  RecordProperty("reached_on_last_page", std::to_string(reached_on_last_page));
  EXPECT_GT(straddled, 0u);
  EXPECT_GT(reached_on_last_page, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, ShardProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

// Dense histories engage the multi-chunk scans and parallel sorts
// underneath both the store build and the sharded analyses.
TEST(ShardPropertyDense, RepliesIdenticalAcrossShardCounts) {
  fixtures::ThreadCountGuard guard;
  for (const std::uint64_t seed : {1ULL, 5ULL}) {
    util::set_analysis_threads(1);
    const cpg::Graph source = fixtures::dense_history(seed);
    const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
    const std::uint64_t first_page = source.pages()[0];
    std::string reference;
    {
      QueryEngine engine(std::make_shared<const cpg::Graph>(source));
      reference = serialized_session(engine, last, first_page);
    }
    EXPECT_GT(reference.size(), 1000u);
    for (const std::uint32_t shards : {2u, 7u}) {
      util::set_analysis_threads(8);
      const std::string dir =
          ::testing::TempDir() + "shard_prop_dense_" + std::to_string(seed) +
          "_" + std::to_string(shards);
      const auto manifest =
          shard::write_store(source, dir, shard::PlanOptions{shards});
      ASSERT_TRUE(manifest.ok()) << manifest.status().message();
      auto store = shard::ShardStore::open(dir);
      ASSERT_TRUE(store.ok()) << store.status().message();
      shard::ShardedQueryEngine engine(std::move(store).value());
      EXPECT_EQ(serialized_session(engine, last, first_page), reference)
          << "dense seed " << seed << ", " << shards << " shard(s)";
    }
  }
}

// Appended stores serve the same bytes: a store written from a clean
// rank-prefix of the capture and then grown by shard::append() must be
// indistinguishable on the wire from a store written whole -- raw,
// compressed, and compressed+appended alike, at every shard count and
// worker count.
TEST(ShardPropertyAppend, AppendedStoresByteIdentical) {
  fixtures::ThreadCountGuard guard;
  for (const std::uint64_t seed : {2ULL, 6ULL}) {
    util::set_analysis_threads(1);
    const cpg::Graph source = fixtures::barrier_history(seed, 10);
    const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
    const std::uint64_t first_page = source.pages()[0];
    std::string reference;
    {
      QueryEngine engine(std::make_shared<const cpg::Graph>(source));
      reference = serialized_session(engine, last, first_page);
    }
    ASSERT_FALSE(reference.empty());

    for (const std::uint32_t shards : {1u, 2u, 7u}) {
      for (const unsigned workers : {1u, 8u}) {
        util::set_analysis_threads(workers);
        const cpg::Graph graph = fixtures::barrier_history(seed, 10);
        const auto prefix = shard::rank_prefix(
            graph, static_cast<std::uint32_t>(graph.nodes().size() * 6 / 10));
        ASSERT_TRUE(prefix.ok()) << prefix.status().message();
        ASSERT_LT(prefix->nodes().size(), graph.nodes().size());
        for (const auto codec :
             {shard::ShardCodec::kRaw, shard::ShardCodec::kLz}) {
          const std::string dir =
              ::testing::TempDir() + "shard_prop_append_" +
              std::to_string(seed) + "_" + std::to_string(shards) + "_" +
              std::to_string(workers) +
              (codec == shard::ShardCodec::kLz ? "_lz" : "");
          const auto base = shard::write_store(
              *prefix, dir, shard::PlanOptions{shards}, codec);
          ASSERT_TRUE(base.ok()) << base.status().message();
          // The appended codec is inherited from the store (no
          // explicit option), so compressed stores stay compressed.
          const auto appended = shard::append(dir, graph);
          ASSERT_TRUE(appended.ok()) << appended.status().message();
          EXPECT_EQ(appended->manifest.total_nodes, graph.nodes().size());
          if (codec == shard::ShardCodec::kLz) {
            for (const auto& info : appended->manifest.shards) {
              EXPECT_EQ(info.codec, shard::ShardCodec::kLz);
            }
          }
          auto store = shard::ShardStore::open(dir);
          ASSERT_TRUE(store.ok()) << store.status().message();
          shard::ShardedQueryEngine engine(std::move(store).value());
          EXPECT_EQ(serialized_session(engine, last, first_page), reference)
              << "seed " << seed << ", " << shards << " shard(s), "
              << workers << " worker(s), codec "
              << (codec == shard::ShardCodec::kLz ? "lz" : "raw");
        }
      }
    }
  }
}

// Compressed out-of-core serving: the decoded-byte budget still forces
// evictions, the cache stays under it, and the store actually shrank
// on disk.
TEST(ShardPropertyCompressed, TightBudgetByteIdenticalWithRealRatio) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::dense_history(3);
  const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
  const std::uint64_t first_page = source.pages()[0];
  std::string reference;
  {
    QueryEngine engine(std::make_shared<const cpg::Graph>(source));
    reference = serialized_session(engine, last, first_page);
  }
  const std::string dir = ::testing::TempDir() + "shard_prop_lz_budget";
  const auto manifest = shard::write_store(source, dir, shard::PlanOptions{7},
                                           shard::ShardCodec::kLz);
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  std::uint64_t encoded = 0;
  std::uint64_t decoded = 0;
  std::uint64_t max_decoded = 0;
  for (const auto& info : manifest->shards) {
    encoded += info.byte_size;
    decoded += info.decoded_bytes;
    max_decoded = std::max(max_decoded, info.decoded_bytes);
  }
  EXPECT_GT(snapshot::compression_ratio(decoded, encoded), 1.5)
      << decoded << " decoded vs " << encoded << " encoded";
  shard::StoreOptions options;
  options.memory_budget_bytes = max_decoded * 2;
  ASSERT_LT(options.memory_budget_bytes, decoded);
  auto store = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const auto store_ptr = store.value();
  shard::ShardedQueryEngine engine(store_ptr);
  EXPECT_EQ(serialized_session(engine, last, first_page), reference);
  const auto stats = store_ptr->stats();
  EXPECT_GT(stats.evictions, 0u) << "budget never forced an eviction";
  EXPECT_LE(stats.peak_cache_bytes,
            std::max(options.memory_budget_bytes, max_decoded));
  EXPECT_EQ(stats.total_decoded_bytes, decoded);
  EXPECT_EQ(stats.total_bytes, encoded);
}

// Out-of-core: a resident budget smaller than the store still serves
// the full session correctly, evicting and reloading shards under it.
TEST(ShardPropertyBudget, TightBudgetStillByteIdentical) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::dense_history(3);
  const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
  const std::uint64_t first_page = source.pages()[0];
  std::string reference;
  {
    QueryEngine engine(std::make_shared<const cpg::Graph>(source));
    reference = serialized_session(engine, last, first_page);
  }
  const std::string dir = ::testing::TempDir() + "shard_prop_budget";
  const auto manifest = shard::write_store(source, dir, shard::PlanOptions{7});
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  std::uint64_t total_decoded = 0;
  std::uint64_t max_shard = 0;
  for (const auto& info : manifest->shards) {
    total_decoded += info.decoded_bytes;
    max_shard = std::max(max_shard, info.decoded_bytes);
  }
  // Room for about two shards: far below the store, above one shard.
  shard::StoreOptions options;
  options.memory_budget_bytes = max_shard * 2;
  ASSERT_LT(options.memory_budget_bytes, total_decoded);
  auto store = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const auto store_ptr = store.value();
  shard::ShardedQueryEngine engine(store_ptr);
  EXPECT_EQ(serialized_session(engine, last, first_page), reference);
  const auto stats = store_ptr->stats();
  EXPECT_GT(stats.evictions, 0u) << "budget never forced an eviction";
  EXPECT_LE(stats.peak_cache_bytes,
            std::max(options.memory_budget_bytes, max_shard));
  EXPECT_LT(stats.peak_cache_bytes, stats.total_decoded_bytes);
}

}  // namespace
