// The critical path the critical-path kernel (analysis/kernels.h)
// returns.
//
// The longest chain of dependent sub-computations bounds how much an
// incremental or replicated re-execution (the paper's §I workflows:
// incremental computation, state machine replication) can parallelize:
// everything on the critical path must re-run sequentially.
#pragma once

#include <cstddef>
#include <vector>

#include "cpg/node.h"

namespace inspector::analysis {

struct CriticalPath {
  /// Node ids along one longest dependency chain, in execution order.
  std::vector<cpg::NodeId> nodes;
  /// Chain length (== nodes.size()).
  std::size_t length = 0;
  /// Total nodes in the graph, for the parallelism ratio.
  std::size_t total_nodes = 0;

  /// Average available parallelism: total / critical-path length.
  [[nodiscard]] double parallelism() const {
    return length == 0 ? 0.0
                       : static_cast<double>(total_nodes) /
                             static_cast<double>(length);
  }
};

}  // namespace inspector::analysis
