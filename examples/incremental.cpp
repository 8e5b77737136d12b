// Bonus workflow (§I): incremental computation from provenance
// (the iThreads/Incoop lineage the paper cites).
//
// Run histogram once, record its CPG, then pretend a few input pages
// changed (one worker's chunk). Change propagation over the CPG tells
// us exactly which sub-computations must re-run; everything else can be
// reused. The experiment shows the reuse fraction for localized edits.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <utility>
#include <variant>

#include "core/inspector.h"
#include "core/report.h"
#include "memtrack/shared_memory.h"
#include "query/engine.h"
#include "workloads/registry.h"

namespace {

/// The sub-computations that must re-run when `changed` input pages
/// differ: an invalidate query, answered by the engine.
std::vector<inspector::cpg::NodeId> dirty_nodes(
    inspector::query::QueryEngine& engine, inspector::PageSet changed) {
  const auto reply =
      engine.run(inspector::query::InvalidateQuery{std::move(changed)});
  if (!reply.ok()) {
    std::cerr << "invalidate query failed: " << reply.status().message()
              << "\n";
    std::exit(1);
  }
  return std::get<inspector::query::FlowResult>(reply->result).nodes;
}

}  // namespace

int main() {
  std::cout << "Workflow: incremental re-execution from the CPG\n\n";

  inspector::workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.4;
  const auto program = inspector::workloads::make_histogram(config);
  inspector::core::Inspector insp;
  auto result = insp.run(program);
  inspector::query::QueryEngine engine(
      std::make_shared<const inspector::cpg::Graph>(std::move(*result.graph)));
  const std::size_t total = engine.graph().nodes().size();

  // Input pages, in address order.
  std::vector<std::uint64_t> input_pages;
  for (const auto& w : program.input) {
    input_pages.push_back(inspector::memtrack::page_id_of(w.addr));
  }

  inspector::core::Table table(
      {"changed_pages", "dirty_nodes", "total_nodes", "reuse"});
  for (std::size_t changed : {1u, 4u, 16u, 64u}) {
    inspector::PageSet delta;
    for (std::size_t i = 0; i < changed && i < input_pages.size(); ++i) {
      delta.push_back(input_pages[i]);
    }
    inspector::page_set_normalize(delta);
    const std::size_t dirty = dirty_nodes(engine, delta).size();
    // The reusable share of the graph: the incremental win.
    const double reuse = total == 0 ? 0.0
                                    : 1.0 - static_cast<double>(dirty) /
                                                static_cast<double>(total);
    table.add_row({std::to_string(delta.size()), std::to_string(dirty),
                   std::to_string(total),
                   inspector::core::format_fixed(100.0 * reuse, 1) + "%"});
  }
  std::cout << table << "\n";

  // Whole-input change: everything that touches input re-runs.
  inspector::PageSet all(input_pages.begin(), input_pages.end());
  std::cout << "whole-input change: " << dirty_nodes(engine, all).size()
            << "/" << total
            << " sub-computations re-run (the non-reader remainder is "
               "spawn/join bookkeeping)\n\n"
            << "Localized edits invalidate only the owning worker's chain "
               "plus the downstream merge -- the CPG is the memoization "
               "index an incremental scheduler needs.\n";
  return 0;
}
