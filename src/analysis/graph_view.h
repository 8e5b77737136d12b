// The graph model of the provenance view (analysis/kernels.h): the
// in-memory cpg::Graph query index at zero cost. Buckets are spans into
// the rank-sorted inverted index, neighbours are the CSR adjacency, the
// whole graph is one topological section, the whole scan is one
// zero-copy race batch, and the residency scope is empty -- everything
// is resident already.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>

#include "analysis/kernels.h"
#include "cpg/graph.h"

namespace inspector::analysis {

class GraphView {
 public:
  struct Scope {};
  using Ref = NodeRef;

  /// A rank-window slice of one inverted-index bucket.
  struct Bucket {
    std::span<const cpg::NodeId> ids;
    const cpg::Graph* graph = nullptr;

    [[nodiscard]] std::size_t size() const noexcept { return ids.size(); }
    [[nodiscard]] NodeRef ref(std::size_t i) const {
      return resolve(*graph, ids[i]);
    }
  };

  /// A run of scan pages, answered straight from the index.
  struct RaceBatch {
    const cpg::Graph* graph = nullptr;
    std::span<const PageRef> pages;

    [[nodiscard]] Bucket writers(std::size_t k) const {
      return {graph->writers_at(pages[k].index), graph};
    }
    [[nodiscard]] Bucket readers(std::size_t k) const {
      return {graph->readers_at(pages[k].index), graph};
    }
    [[nodiscard]] const cpg::SubComputation& node(cpg::NodeId id) const {
      return graph->node(id);
    }
  };

  explicit GraphView(const cpg::Graph& graph) : graph_(graph) {}

  [[nodiscard]] Scope scope() const { return {}; }
  [[nodiscard]] std::size_t node_count() const {
    return graph_.nodes().size();
  }
  [[nodiscard]] std::size_t thread_count() const {
    return graph_.thread_count();
  }
  [[nodiscard]] std::span<const std::uint64_t> pages() const {
    return graph_.pages();
  }
  [[nodiscard]] bool cyclic() const { return graph_.has_cycle(); }
  [[nodiscard]] cpg::GraphStats stats() const { return graph_.stats(); }

  /// Bounds-checked: std::out_of_range for an unknown id.
  [[nodiscard]] Ref node(Scope&, cpg::NodeId id) const {
    return {id, graph_.rank(id), &graph_.node(id)};
  }
  [[nodiscard]] std::optional<Ref> try_node(Scope& scope,
                                            cpg::NodeId id) const {
    return node(scope, id);
  }

  [[nodiscard]] Bucket bucket(Scope&, PageRef page, bool writers,
                              RankWindow window) const {
    auto ids = writers ? graph_.writers_at(page.index)
                       : graph_.readers_at(page.index);
    const auto ranks = graph_.ranks();
    const auto rank_lower_bound = [&](std::uint32_t bound) {
      return static_cast<std::size_t>(
          std::lower_bound(
              ids.begin(), ids.end(), bound,
              [&](cpg::NodeId id, std::uint32_t r) { return ranks[id] < r; }) -
          ids.begin());
    };
    if (window.hi != RankWindow{}.hi) {
      ids = ids.first(rank_lower_bound(window.hi));
    }
    if (window.lo != 0) ids = ids.subspan(rank_lower_bound(window.lo));
    return {ids, &graph_};
  }

  template <typename Fn>
  void for_each_in(const Ref& v, Fn&& fn) const {
    for (const std::uint32_t e : graph_.in_edges(v.id)) {
      fn(graph_.edges()[e].from);
    }
  }
  template <typename Fn>
  void for_each_out(const Ref& v, Fn&& fn) const {
    for (const std::uint32_t e : graph_.out_edges(v.id)) {
      fn(graph_.edges()[e].to);
    }
  }

  [[nodiscard]] std::size_t level_count() const {
    return graph_.level_count();
  }
  template <typename Fn>
  void level(Scope&, std::size_t lvl, Fn&& fn) const {
    for (const cpg::NodeId id : graph_.level_nodes(lvl)) {
      fn(resolve(graph_, id));
    }
  }

  [[nodiscard]] std::size_t section_count() const { return 1; }
  template <typename Fn>
  void section(Scope&, std::size_t, Fn&& fn) const {
    for (const cpg::NodeId id : graph_.topological_view()) {
      fn(resolve(graph_, id));
    }
  }

  [[nodiscard]] std::size_t race_batch_pages() const {
    return std::max<std::size_t>(graph_.page_count(), 1);
  }
  [[nodiscard]] RaceBatch race_batch(std::span<const PageRef> pages,
                                     bool /*page_sets*/) const {
    return {&graph_, pages};
  }

 private:
  /// Unchecked: ids from the index are in range by construction.
  static NodeRef resolve(const cpg::Graph& graph, cpg::NodeId id) {
    return {id, graph.ranks()[id], &graph.nodes()[id]};
  }

  const cpg::Graph& graph_;
};

}  // namespace inspector::analysis
