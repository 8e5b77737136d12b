#include "analysis/incremental.h"

#include "analysis/graph_view.h"

namespace inspector::analysis {

InvalidationResult invalidate(const cpg::Graph& graph,
                              const PageSet& changed_input_pages) {
  // Register carry-over is always on: once a thread consumed changed
  // data, everything it does afterwards may differ (same soundness
  // argument as DIFT's carry-over).
  Propagation p = kernels::propagate(GraphView(graph), changed_input_pages,
                                     /*thread_carryover=*/true);
  InvalidationResult result;
  result.dirty_pages = std::move(p.pages);
  result.dirty = std::move(p.nodes);
  return result;
}

}  // namespace inspector::analysis
