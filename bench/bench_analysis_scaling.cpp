// bench_analysis_scaling -- wall time and speedup of the parallel
// analysis runtime (util::TaskPool) at 1/2/4/8 workers on synthetic
// CPGs of growing size, for the three parallelized layers: index
// construction (Graph::build_indices), the page-major race scan, and
// taint propagation. Emits one machine-readable JSON line per
// measurement so BENCH trajectories can track the scaling curve, plus
// a combined line per graph with the end-to-end speedup. Every phase's
// output is fingerprinted and compared across worker counts; a
// measurement with "identical":false is a determinism bug.
//
// Deliberately not a google-benchmark binary: the unit of interest is
// one whole pass per worker count, not a tight-loop microsecond rate.
//
//   bench_analysis_scaling [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/graph_view.h"
#include "bench_json.h"
#include "synthetic_history.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
namespace kernels = analysis::kernels;
using analysis::GraphView;
using Clock = std::chrono::steady_clock;

using bench::synthetic_cpg;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// One fingerprint covering the index and both analysis outputs, so a
/// merge that reorders or drops anything shows up as a hash mismatch.
std::uint64_t fingerprint(const cpg::Graph& g,
                          const std::vector<analysis::RaceReport>& races,
                          const analysis::Propagation& taint) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& n : g.nodes()) h = fnv1a(h, g.rank(n.id));
  for (cpg::NodeId id : g.topological_view()) h = fnv1a(h, id);
  for (std::size_t idx = 0; idx < g.page_count(); ++idx) {
    h = fnv1a(h, g.pages()[idx]);
    for (cpg::NodeId w : g.writers_at(idx)) h = fnv1a(h, w);
    for (cpg::NodeId r : g.readers_at(idx)) h = fnv1a(h, r);
  }
  for (const auto& r : races) {
    h = fnv1a(h, (static_cast<std::uint64_t>(r.first) << 32) | r.second);
    h = fnv1a(h, r.page * 2 + (r.write_write ? 1 : 0));
  }
  for (cpg::NodeId id : taint.nodes) h = fnv1a(h, id);
  for (std::uint64_t p : taint.pages) h = fnv1a(h, p);
  return h;
}

struct Measurement {
  double build_ms = 0;
  double races_ms = 0;
  double taint_ms = 0;
  std::uint64_t hash = 0;

  [[nodiscard]] double combined_ms() const {
    return build_ms + races_ms + taint_ms;
  }
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Measurement measure(const std::vector<cpg::SubComputation>& nodes,
                    const std::vector<cpg::Edge>& edges, int reps) {
  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    auto n = nodes;
    auto e = edges;
    const auto t0 = Clock::now();
    const cpg::Graph g(std::move(n), std::move(e), {});
    const double build_ms = ms_since(t0);

    const auto t1 = Clock::now();
    const auto races = kernels::find_races(GraphView(g), {}, 0);
    const double races_ms = ms_since(t1);

    PageSet seeds;
    for (std::uint64_t p = 0; p < 4 && p < g.page_count(); ++p) {
      seeds.push_back(g.pages()[p]);
    }
    const auto t2 = Clock::now();
    const auto taint =
        kernels::propagate(GraphView(g), seeds, /*thread_carryover=*/true);
    const double taint_ms = ms_since(t2);

    if (rep == 0 || build_ms + races_ms + taint_ms < best.combined_ms()) {
      best.build_ms = build_ms;
      best.races_ms = races_ms;
      best.taint_ms = taint_ms;
    }
    best.hash = fingerprint(g, races, taint);
  }
  return best;
}

void emit(const std::string& phase, std::size_t nodes, std::size_t pages,
          unsigned workers, double ms, double baseline_ms, bool identical) {
  bench::JsonLine("analysis_scaling")
      .field("phase", phase)
      .field("nodes", nodes)
      .field("pages", pages)
      .field("workers", workers)
      .field("ms", ms)
      .field("speedup_vs_1w", ms > 0 ? baseline_ms / ms : 0.0)
      .field("identical", identical)
      .emit();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  struct Shape {
    std::uint32_t threads, rounds;
    std::uint64_t pages_per_node;
  };
  std::vector<Shape> shapes = {{16, 12, 12}, {16, 40, 20}, {16, 110, 28}};
  if (quick) shapes = {{8, 8, 8}, {16, 24, 16}};
  const int reps = quick ? 1 : 3;

  bool all_identical = true;
  for (const Shape& s : shapes) {
    // Build the history once; each worker count re-indexes copies of
    // the same nodes/edges.
    const cpg::Graph seed_graph =
        synthetic_cpg(s.threads, s.rounds, s.pages_per_node);
    const auto& nodes = seed_graph.nodes();
    const auto& edges = seed_graph.edges();

    Measurement baseline;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      inspector::util::set_analysis_threads(workers);
      const Measurement m = measure(nodes, edges, reps);
      if (workers == 1) baseline = m;
      const bool identical = m.hash == baseline.hash;
      all_identical = all_identical && identical;
      const std::size_t pages = seed_graph.page_count();
      emit("build", nodes.size(), pages, workers, m.build_ms,
           baseline.build_ms, identical);
      emit("races", nodes.size(), pages, workers, m.races_ms,
           baseline.races_ms, identical);
      emit("taint", nodes.size(), pages, workers, m.taint_ms,
           baseline.taint_ms, identical);
      emit("combined", nodes.size(), pages, workers, m.combined_ms(),
           baseline.combined_ms(), identical);
    }
  }
  inspector::util::set_analysis_threads(0);
  if (!all_identical) {
    std::cerr << "DETERMINISM VIOLATION: outputs differ across worker "
                 "counts\n";
    return 1;
  }
  return 0;
}
