// Ablation bench (EXPERIMENTS.md lists it among the simulated benches):
// what each half of INSPECTOR costs in isolation -- MMU tracking only
// (threading library), Intel PT only (OS support), and the full
// system -- decomposing the fig-6 breakdown by actually disabling
// components.
#include <iostream>

#include "core/inspector.h"
#include "core/report.h"
#include "workloads/registry.h"

int main() {
  std::cout << "Ablation: component cost in isolation, 8 threads\n\n";

  inspector::core::Table table(
      {"workload", "full", "memtrack_only", "pt_only", "sum_of_parts"});

  for (const auto& entry : inspector::workloads::all_workloads()) {
    inspector::workloads::WorkloadConfig config;
    config.threads = 8;

    inspector::core::Options full;
    inspector::core::Options mem_only;
    mem_only.enable_pt = false;
    inspector::core::Options pt_only;
    pt_only.enable_memtrack = false;

    const auto program = entry.make(config);
    const auto full_cmp = inspector::core::Inspector(full).compare(program);
    const auto mem_cmp =
        inspector::core::Inspector(mem_only).compare(program);
    const auto pt_cmp = inspector::core::Inspector(pt_only).compare(program);

    const double parts =
        1.0 + (mem_cmp.time_overhead() - 1.0) + (pt_cmp.time_overhead() - 1.0);
    table.add_row({entry.name,
                   inspector::core::format_overhead(full_cmp.time_overhead()),
                   inspector::core::format_overhead(mem_cmp.time_overhead()),
                   inspector::core::format_overhead(pt_cmp.time_overhead()),
                   inspector::core::format_overhead(parts)});
  }
  std::cout << table
            << "\nreading: full ~= memtrack + pt (components compose "
               "additively); the threading library dominates canneal/"
               "reverse_index/kmeans, PT dominates the rest -- the same "
               "split fig 6 reports.\n";
  return 0;
}
