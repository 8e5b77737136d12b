// The Concurrent Provenance Graph (INSPECTOR §IV-A): a DAG whose
// vertices are sub-computations and whose edges record control,
// synchronization, and data dependencies.
//
// A Graph is data plus its query index, nothing more. Construction
// builds the shared, immutable index once (CSR adjacency, per-thread
// node lists, a happens-before-compatible rank, topological levels,
// and a page -> writers/readers inverted index). The questions asked
// of it -- dependences, slices, races, taint, invalidation, the
// critical path -- live in analysis/kernels.h, which reads this index
// through analysis::GraphView; query::QueryEngine is the front door
// that answers them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cpg/node.h"

namespace inspector::util {
class TaskPool;
}

namespace inspector::cpg {

/// Aggregate statistics over a CPG (used by reports and tests).
struct GraphStats {
  std::size_t nodes = 0;
  std::size_t control_edges = 0;
  std::size_t sync_edges = 0;
  std::size_t threads = 0;
  std::uint64_t thunks = 0;
  std::uint64_t read_pages = 0;   ///< sum of read-set sizes
  std::uint64_t write_pages = 0;  ///< sum of write-set sizes

  bool operator==(const GraphStats&) const = default;
};

/// The happens-before check on resolved payloads, given each node's
/// hb-rank (see Graph::rank()). Fast reject first: rank embeds
/// happens-before (clock dominance strictly grows the weight rank sorts
/// by, and alpha breaks ties within a thread), so rank_a >= rank_b rules
/// out a-hb-b without touching the clocks -- half of all random probes
/// and every self/descendant probe exit here. Then same-thread alpha
/// order, then the vector-clock compare. Graph::happens_before and the
/// provenance kernels (analysis/kernels.h) all run this one body.
[[nodiscard]] inline bool happens_before(std::uint32_t rank_a,
                                         const SubComputation& a,
                                         std::uint32_t rank_b,
                                         const SubComputation& b) {
  if (rank_a >= rank_b) return false;
  if (a.thread == b.thread) return a.alpha < b.alpha;
  return a.clock.happens_before(b.clock);
}

class Graph {
 public:
  Graph() = default;
  Graph(std::vector<SubComputation> nodes, std::vector<Edge> edges,
        std::vector<sync::SyncEvent> schedule);

  [[nodiscard]] const std::vector<SubComputation>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const SubComputation& node(NodeId id) const {
    return nodes_.at(id);
  }
  /// Control + sync edges recorded at build time (data edges are
  /// derived on demand by the kernels in analysis/kernels.h).
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  /// The recorded synchronization schedule (§IV-A II).
  [[nodiscard]] const std::vector<sync::SyncEvent>& schedule() const noexcept {
    return schedule_;
  }

  /// Nodes of thread `tid`, in execution (alpha) order.
  [[nodiscard]] std::span<const NodeId> thread_nodes(ThreadId tid) const;
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return thread_offsets_.empty() ? 0 : thread_offsets_.size() - 1;
  }

  /// The node L_t[alpha], if it exists (binary search on the
  /// alpha-sorted per-thread list).
  [[nodiscard]] std::optional<NodeId> find(ThreadId tid,
                                           std::uint64_t alpha) const;

  // --- happens-before queries (vector-clock comparison, §IV-B) --------
  [[nodiscard]] bool happens_before(NodeId a, NodeId b) const;
  [[nodiscard]] bool concurrent(NodeId a, NodeId b) const;

  // --- shared query index ----------------------------------------------
  /// Every distinct page any node read or wrote, sorted. The position of
  /// a page in this span is its dense index: analyses size flat arrays
  /// by page_count() and find a page's index with
  /// analysis::kernels::page_index_in instead of a hash map.
  [[nodiscard]] std::span<const std::uint64_t> pages() const noexcept {
    return pages_;
  }
  [[nodiscard]] std::size_t page_count() const noexcept {
    return pages_.size();
  }
  /// Writers/readers of the page at `page_index` (its position in
  /// pages()) from the inverted index, sorted by happens-before-
  /// compatible rank (see rank()).
  [[nodiscard]] std::span<const NodeId> writers_at(std::size_t page_index) const;
  [[nodiscard]] std::span<const NodeId> readers_at(std::size_t page_index) const;

  /// A total order compatible with happens-before: happens_before(a, b)
  /// implies rank(a) < rank(b). Derived from vector-clock weight, so it
  /// holds even for hb pairs with no recorded edge path.
  [[nodiscard]] std::uint32_t rank(NodeId id) const { return rank_.at(id); }
  /// rank() for every node, indexed by id.
  [[nodiscard]] std::span<const std::uint32_t> ranks() const noexcept {
    return rank_;
  }

  /// Topological order consistent with happens-before, computed once
  /// at construction; throws std::logic_error when the recorded graph
  /// has a cycle (which would indicate a recorder bug -- the CPG is a
  /// DAG by construction).
  [[nodiscard]] std::span<const NodeId> topological_view() const;
  /// True when the recorded edges form a cycle (topological_view(),
  /// level_count() and level_nodes() then throw).
  [[nodiscard]] bool has_cycle() const noexcept { return has_cycle_; }

  // --- topological levels ----------------------------------------------
  /// The cached order is grouped into levels: level k holds the nodes
  /// whose longest recorded-edge path from a root has k edges. No
  /// recorded path exists between two nodes of the same level (and
  /// same-thread nodes always sit on different levels, their control
  /// edges chain them), so level-synchronous passes -- the parallel
  /// taint/invalidation frontier -- may process one level's nodes in
  /// any order or concurrently and still be deterministic. Same cycle
  /// check as topological_view().
  [[nodiscard]] std::size_t level_count() const;
  /// Nodes of one level, ascending node id.
  [[nodiscard]] std::span<const NodeId> level_nodes(std::size_t level) const;

  /// Verify DAG-ness and clock consistency: every recorded edge's
  /// source must happen-before (or equal, for same-thread control
  /// edges) its destination. Returns false with a reason when violated.
  [[nodiscard]] bool validate(std::string* reason = nullptr) const;

  [[nodiscard]] GraphStats stats() const;

  /// Outgoing recorded (control/sync) edges per node (edge indices).
  [[nodiscard]] std::span<const std::uint32_t> out_edges(NodeId id) const;
  /// Incoming recorded (control/sync) edges per node (edge indices).
  [[nodiscard]] std::span<const std::uint32_t> in_edges(NodeId id) const;

 private:
  void build_indices();
  void build_adjacency();
  void build_thread_index(util::TaskPool& pool);
  void build_rank(util::TaskPool& pool);
  void build_topological_order();
  void build_page_index(util::TaskPool& pool);

  std::vector<SubComputation> nodes_;
  std::vector<Edge> edges_;
  std::vector<sync::SyncEvent> schedule_;

  // Per-thread node lists, alpha-sorted, in one flat CSR array.
  std::vector<std::uint32_t> thread_offsets_;  ///< thread_count()+1 entries
  std::vector<NodeId> thread_nodes_;

  // CSR adjacency over recorded edges, by edge index into edges_.
  std::vector<std::uint32_t> out_offsets_;
  std::vector<std::uint32_t> out_ids_;
  std::vector<std::uint32_t> in_offsets_;
  std::vector<std::uint32_t> in_ids_;

  // Happens-before-compatible total order (clock weight, thread, alpha).
  std::vector<std::uint32_t> rank_;

  // Cached topological order over recorded edges, grouped by (level,
  // id); empty + flag when cyclic. level_offsets_ has level_count()+1
  // entries indexing topo_.
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> level_offsets_;
  bool has_cycle_ = false;

  // Inverted index: page -> writers / readers, rank-sorted per page.
  std::vector<std::uint64_t> pages_;  ///< sorted distinct page ids
  std::vector<std::uint32_t> writer_offsets_;  ///< page_count()+1 entries
  std::vector<NodeId> writers_;
  std::vector<std::uint32_t> reader_offsets_;
  std::vector<NodeId> readers_;
};

}  // namespace inspector::cpg
