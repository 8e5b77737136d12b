// Equivalence of the indexed CPG queries against brute force.
//
// The data_dependencies / latest_writers kernels, the race scan and
// the graph's writers_at / readers_at buckets answer from the page
// inverted index built at construction. These tests keep the original all-nodes-scan
// implementations as the reference and assert set-equality on
// randomized recorder histories, so any index bug (bad rank, wrong
// bucket boundaries, over-eager pruning) shows up as a divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "analysis/graph_view.h"
#include "cpg/recorder.h"

namespace {

using namespace inspector::cpg;
namespace kernels = inspector::analysis::kernels;
namespace sync = inspector::sync;
using inspector::PageSet;
using inspector::analysis::GraphView;

// --- brute-force reference implementations (the seed's O(nodes) scans) --

std::vector<NodeId> brute_writers_of_page(const Graph& g, std::uint64_t page) {
  std::vector<NodeId> result;
  for (const auto& n : g.nodes()) {
    if (n.writes_page(page)) result.push_back(n.id);
  }
  return result;
}

std::vector<NodeId> brute_readers_of_page(const Graph& g, std::uint64_t page) {
  std::vector<NodeId> result;
  for (const auto& n : g.nodes()) {
    if (n.reads_page(page)) result.push_back(n.id);
  }
  return result;
}

std::vector<Edge> brute_data_dependencies(const Graph& g, NodeId reader) {
  const auto& r = g.node(reader);
  std::vector<Edge> result;
  for (const auto& w : g.nodes()) {
    if (w.id == reader) continue;
    if (!g.happens_before(w.id, reader)) continue;
    for (std::uint64_t page : r.read_set) {
      if (w.writes_page(page)) {
        result.push_back({w.id, reader, EdgeKind::kData, page});
      }
    }
  }
  return result;
}

std::vector<Edge> brute_latest_writers(const Graph& g, NodeId reader) {
  const auto& r = g.node(reader);
  std::vector<Edge> result;
  for (std::uint64_t page : r.read_set) {
    std::vector<NodeId> candidates;
    for (const auto& w : g.nodes()) {
      if (w.id != reader && g.happens_before(w.id, reader) &&
          w.writes_page(page)) {
        candidates.push_back(w.id);
      }
    }
    for (NodeId c : candidates) {
      const bool superseded = std::any_of(
          candidates.begin(), candidates.end(),
          [&](NodeId d) { return d != c && g.happens_before(c, d); });
      if (!superseded) result.push_back({c, reader, EdgeKind::kData, page});
    }
  }
  return result;
}

// The seed's O(n^2) pairwise race scan, kept as the reference for the
// page-major detector.
std::vector<inspector::analysis::RaceReport> brute_find_races(const Graph& g) {
  namespace analysis = inspector::analysis;
  std::vector<analysis::RaceReport> races;
  const auto first_common =
      [](const PageSet& a, const PageSet& b) -> std::optional<std::uint64_t> {
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
      if (*ia < *ib) {
        ++ia;
      } else if (*ib < *ia) {
        ++ib;
      } else {
        return *ia;
      }
    }
    return std::nullopt;
  };
  const auto& nodes = g.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto& a = nodes[i];
      const auto& b = nodes[j];
      if (a.thread == b.thread) continue;
      const auto ww = first_common(a.write_set, b.write_set);
      const auto rw =
          ww ? std::nullopt : first_common(a.write_set, b.read_set);
      const auto wr =
          (ww || rw) ? std::nullopt : first_common(a.read_set, b.write_set);
      if (!ww && !rw && !wr) continue;
      if (!g.concurrent(a.id, b.id)) continue;
      analysis::RaceReport report;
      report.first = a.id;
      report.second = b.id;
      report.page = ww ? *ww : (rw ? *rw : *wr);
      report.write_write = ww.has_value();
      races.push_back(report);
    }
  }
  return races;
}

// --- set-equality helpers ----------------------------------------------

std::vector<Edge> canonical(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.object < b.object;
  });
  return edges;
}

std::vector<NodeId> canonical(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- randomized histories ----------------------------------------------

constexpr std::uint64_t kPageUniverse = 16;

PageSet random_pages(std::mt19937_64& rng) {
  // Deliberately unsorted with possible duplicates: the recorder owns
  // the normalize step and these histories exercise it.
  PageSet pages;
  const std::size_t count = rng() % 6;
  for (std::size_t i = 0; i < count; ++i) {
    pages.push_back(rng() % kPageUniverse);
  }
  return pages;
}

Graph random_history(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint32_t threads = 2 + rng() % 4;
  const std::uint32_t mutexes = 1 + rng() % 3;
  Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  const std::size_t steps = 30 + rng() % 50;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint32_t t = rng() % threads;
    const auto m = sync::make_object_id(sync::ObjectKind::kMutex,
                                        1 + rng() % mutexes);
    switch (rng() % 4) {
      case 0:
      case 1:
        rec.end_subcomputation(t, random_pages(rng), random_pages(rng),
                               {sync::SyncEventKind::kMutexLock, m});
        break;
      case 2:
        rec.on_release(t, m);
        break;
      default:
        rec.on_acquire(t, m);
        break;
    }
  }
  for (std::uint32_t t = 0; t < threads; ++t) {
    rec.thread_exiting(t, random_pages(rng), random_pages(rng));
  }
  return std::move(rec).finalize();
}

class QueryIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryIndexProperty, GraphValidates) {
  const Graph g = random_history(GetParam());
  std::string reason;
  EXPECT_TRUE(g.validate(&reason)) << reason;
}

/// The indexed writers (or readers) of `page`: its inverted-index
/// bucket, or nothing when no node touched it.
std::vector<NodeId> indexed_accessors(const Graph& g, std::uint64_t page,
                                      bool writers) {
  const auto idx = kernels::page_index_in(g.pages(), page);
  if (!idx) return {};
  const auto bucket = writers ? g.writers_at(*idx) : g.readers_at(*idx);
  return {bucket.begin(), bucket.end()};
}

TEST_P(QueryIndexProperty, PageIndexMatchesBruteForce) {
  const Graph g = random_history(GetParam());
  // Sweep past the universe edge to cover untouched pages too.
  for (std::uint64_t page = 0; page < kPageUniverse + 2; ++page) {
    EXPECT_EQ(canonical(indexed_accessors(g, page, /*writers=*/true)),
              canonical(brute_writers_of_page(g, page)))
        << "writers of page " << page;
    EXPECT_EQ(canonical(indexed_accessors(g, page, /*writers=*/false)),
              canonical(brute_readers_of_page(g, page)))
        << "readers of page " << page;
  }
}

TEST_P(QueryIndexProperty, DataDependenciesMatchBruteForce) {
  const Graph g = random_history(GetParam());
  for (const auto& n : g.nodes()) {
    EXPECT_EQ(canonical(kernels::data_dependencies(GraphView(g), n.id)),
              canonical(brute_data_dependencies(g, n.id)))
        << "data dependencies of node " << n.id;
  }
}

TEST_P(QueryIndexProperty, LatestWritersMatchBruteForce) {
  const Graph g = random_history(GetParam());
  for (const auto& n : g.nodes()) {
    EXPECT_EQ(canonical(kernels::latest_writers(GraphView(g), n.id)),
              canonical(brute_latest_writers(g, n.id)))
        << "latest writers of node " << n.id;
  }
}

TEST_P(QueryIndexProperty, RankEmbedsHappensBefore) {
  const Graph g = random_history(GetParam());
  for (const auto& a : g.nodes()) {
    for (const auto& b : g.nodes()) {
      if (g.happens_before(a.id, b.id)) {
        EXPECT_LT(g.rank(a.id), g.rank(b.id))
            << "rank must embed happens-before: " << a.id << " hb " << b.id;
      }
    }
  }
}

TEST_P(QueryIndexProperty, RaceScanMatchesBruteForce) {
  const Graph g = random_history(GetParam());
  const auto indexed = kernels::find_races(GraphView(g), {}, 0);
  const auto brute = brute_find_races(g);
  ASSERT_EQ(indexed.size(), brute.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i], brute[i]) << "race " << i;
  }
  // A limited scan must return a prefix-sized subset with the same
  // per-pair classification as the full scan.
  if (!brute.empty()) {
    const auto limited = kernels::find_races(GraphView(g), {}, /*limit=*/1);
    ASSERT_EQ(limited.size(), 1u);
    EXPECT_TRUE(std::find(brute.begin(), brute.end(), limited.front()) !=
                brute.end())
        << "limited report must match the full scan's report for that pair";
  }
}

TEST_P(QueryIndexProperty, FindMatchesLinearScan) {
  const Graph g = random_history(GetParam());
  for (std::size_t t = 0; t < g.thread_count() + 1; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    for (std::uint64_t alpha = 0; alpha < g.nodes().size() + 1; ++alpha) {
      std::optional<NodeId> expected;
      for (NodeId id : g.thread_nodes(tid)) {
        if (g.node(id).alpha == alpha) expected = id;
      }
      EXPECT_EQ(g.find(tid, alpha), expected)
          << "find(" << t << ", " << alpha << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, QueryIndexProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
