// Incremental-computation support (§I workflow; iThreads, Incoop,
// Slider lineage).
//
// Given the CPG of a previous run and the set of input pages that
// changed, compute which sub-computations must re-execute: the nodes
// that (transitively) read changed data. Everything else can be reused
// memoized -- the provenance graph is exactly the dependence structure
// an incremental scheduler needs.
#pragma once

#include <cstdint>
#include <vector>

#include "cpg/graph.h"
#include "util/page_set.h"

namespace inspector::analysis {

struct InvalidationResult {
  /// Nodes that must re-run, ascending id order.
  std::vector<cpg::NodeId> dirty;
  /// Pages whose contents may differ after re-execution (changed input
  /// pages plus everything dirty nodes wrote). Sorted and
  /// duplicate-free.
  PageSet dirty_pages;

  /// Fraction of the graph that can be reused (the incremental win).
  [[nodiscard]] double reuse_fraction(std::size_t total_nodes) const {
    if (total_nodes == 0) return 0.0;
    return 1.0 - static_cast<double>(dirty.size()) /
                     static_cast<double>(total_nodes);
  }
};

/// Change propagation: a node is dirty when it reads a dirty page OR
/// any earlier sub-computation of its thread is dirty (registers carry
/// values across pthreads calls, so once a thread consumed changed
/// data, everything it does afterwards may differ -- same soundness
/// argument as DIFT's carry-over). Dirty nodes' writes dirty further
/// pages. Level-synchronous pass over the topological levels, parallel
/// on the analysis pool with deterministic merges.
[[nodiscard]] InvalidationResult invalidate(
    const cpg::Graph& graph, const PageSet& changed_input_pages);

}  // namespace inspector::analysis
