// Dynamic information flow tracking over the CPG (§VIII case study 2).
//
// DIFT protects against data leaks by restricting what computations
// influenced by sensitive input may output. On a CPG this is forward
// reachability: seed taint on the sensitive pages, propagate along
// happens-before dataflow, and check output sites against a policy.
#pragma once

#include <cstdint>
#include <vector>

#include "cpg/graph.h"
#include "util/page_set.h"

namespace inspector::analysis {

struct TaintOptions {
  /// Also taint a sub-computation whose same-thread predecessor is
  /// tainted: registers survive pthreads calls, so data read before a
  /// lock() flows into stores inside the critical section even though
  /// the page sets alone cannot witness it. Conservative but sound for
  /// register carry-over; disable for pure page-flow analysis.
  bool track_register_carryover = true;
};

struct TaintResult {
  /// All pages tainted after propagation (includes the seeds).
  /// Sorted and duplicate-free.
  PageSet tainted_pages;
  /// Tainted sub-computations, ascending id.
  std::vector<cpg::NodeId> tainted_nodes;

  [[nodiscard]] bool node_tainted(cpg::NodeId id) const;
};

/// Propagate taint from `seed_pages` forward through the graph.
/// Level-synchronous pass over the topological levels (a node's
/// predecessors under happens-before sit on strictly lower levels and
/// are processed first); levels scan in parallel on the analysis pool
/// with bit-identical results at every worker count.
[[nodiscard]] TaintResult propagate_taint(const cpg::Graph& graph,
                                          const PageSet& seed_pages,
                                          const TaintOptions& options = {});

/// Policy check: sub-computations that end in `sink_kind` (e.g. thread
/// exit standing for an output syscall) and are tainted, ascending id.
/// Walks the topological order, so like propagate_taint it needs an
/// acyclic graph.
[[nodiscard]] std::vector<cpg::NodeId> tainted_sinks(
    const cpg::Graph& graph, const TaintResult& taint,
    sync::SyncEventKind sink_kind);

}  // namespace inspector::analysis
