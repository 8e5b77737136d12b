// One query dispatch for every backend: per-kind validation and result
// assembly around the provenance kernels (analysis/kernels.h). The
// in-memory backend runs it over analysis::GraphView, the sharded
// backend over its shard model, so the two cannot disagree on a check,
// an error message or a result shape.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "analysis/kernels.h"
#include "query/engine.h"
#include "query/overloaded.h"

namespace inspector::query {

namespace detail {

inline Status node_range_error(cpg::NodeId id, std::size_t count) {
  return {StatusCode::kOutOfRange,
          "node id " + std::to_string(id) + " out of range [0, " +
              std::to_string(count) + ")"};
}

inline Status untouched_page_error(std::uint64_t page) {
  return {StatusCode::kNotFound,
          "page " + std::to_string(page) +
              " was not touched by any recorded node"};
}

inline Status cyclic_error(const char* what) {
  return {StatusCode::kFailedPrecondition,
          std::string(what) +
              " requires a topological order, but the graph has a cycle"};
}

}  // namespace detail

/// Validate and answer one canonicalized query against a view. The
/// checks: node range, untouched page, and -- for the level- and
/// section-ordered kinds -- a cyclic graph. Anchors (the node a slice
/// or dependence query starts from) resolve strictly inside the
/// kernels. Views report storage failures by throwing; the caller owns
/// that boundary.
template <typename View>
Result<QueryResult> run_query(const View& view, const Query& q) {
  namespace kernels = analysis::kernels;
  using detail::node_range_error;
  const std::size_t node_count = view.node_count();
  const auto invalid = [&](cpg::NodeId id) { return id >= node_count; };

  return std::visit(
      detail::Overloaded{
          [&](const BackwardSliceQuery& s) -> Result<QueryResult> {
            if (invalid(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                NodeListResult{kernels::backward_slice(view, s.node)});
          },
          [&](const ForwardSliceQuery& s) -> Result<QueryResult> {
            if (invalid(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                NodeListResult{kernels::forward_slice(view, s.node)});
          },
          [&](const LatestWritersQuery& s) -> Result<QueryResult> {
            if (invalid(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                EdgeListResult{kernels::latest_writers(view, s.node)});
          },
          [&](const DataDependenciesQuery& s) -> Result<QueryResult> {
            if (invalid(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                EdgeListResult{kernels::data_dependencies(view, s.node)});
          },
          [&](const PageAccessorsQuery& s) -> Result<QueryResult> {
            const auto index = kernels::page_index_in(view.pages(), s.page);
            if (!index) return detail::untouched_page_error(s.page);
            auto scope = view.scope();
            PageAccessorsResult out;
            out.page = s.page;
            for (const bool writers : {true, false}) {
              const auto bucket =
                  view.bucket(scope, {s.page, *index}, writers, {});
              auto& ids = writers ? out.writers : out.readers;
              ids.reserve(bucket.size());
              for (std::size_t i = 0; i < bucket.size(); ++i) {
                ids.push_back(bucket.ref(i).id);
              }
            }
            return QueryResult(std::move(out));
          },
          [&](const HappensBeforeQuery& s) -> Result<QueryResult> {
            if (invalid(s.first)) return node_range_error(s.first, node_count);
            if (invalid(s.second)) {
              return node_range_error(s.second, node_count);
            }
            HappensBeforeResult out;
            if (s.first == s.second) {
              out.ordering = Ordering::kEqual;
              return QueryResult(out);
            }
            auto scope = view.scope();
            const auto a = view.node(scope, s.first);
            const auto b = view.node(scope, s.second);
            out.ordering = kernels::happens_before(a, b)   ? Ordering::kBefore
                           : kernels::happens_before(b, a) ? Ordering::kAfter
                                                           : Ordering::kConcurrent;
            return QueryResult(out);
          },
          [&](const RacesQuery& s) -> Result<QueryResult> {
            return QueryResult(RaceListResult{kernels::find_races(
                view, s.ignored_pages, static_cast<std::size_t>(s.limit))});
          },
          [&](const TaintQuery& s) -> Result<QueryResult> {
            if (view.cyclic()) return detail::cyclic_error("taint");
            analysis::Propagation flow = kernels::propagate(
                view, s.seed_pages, s.track_register_carryover);
            FlowResult out;
            out.sinks = kernels::marked_sinks(view, flow.nodes, s.sink_kind);
            out.nodes = std::move(flow.nodes);
            out.pages = std::move(flow.pages);
            return QueryResult(std::move(out));
          },
          [&](const InvalidateQuery& s) -> Result<QueryResult> {
            if (view.cyclic()) return detail::cyclic_error("invalidate");
            analysis::Propagation flow = kernels::propagate(
                view, s.changed_pages, /*thread_carryover=*/true);
            return QueryResult(
                FlowResult{std::move(flow.nodes), std::move(flow.pages), {}});
          },
          [&](const CriticalPathQuery&) -> Result<QueryResult> {
            if (view.cyclic()) return detail::cyclic_error("critical_path");
            analysis::CriticalPath cp = kernels::critical_path(view);
            return QueryResult(
                CriticalPathResult{std::move(cp.nodes), cp.total_nodes});
          },
          [&](const StatsQuery&) -> Result<QueryResult> {
            return QueryResult(StatsResult{view.stats()});
          },
      },
      q);
}

}  // namespace inspector::query
