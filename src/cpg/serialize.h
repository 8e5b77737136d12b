// CPG serialization: the format the snapshot ring stores and the
// perf-script-style text dump the paper's extended perf interface
// exposes (§V, "exports the CPG as an extended interface in the perf
// utility").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "util/status.h"

namespace inspector::cpg {

/// "CPG1" magic opening every whole-graph file.
inline constexpr std::uint32_t kCpgMagic = 0x31475043;
/// Current format generation. Version 1 was the headerless pre-shard
/// layout (magic only); version 2 added this explicit version field,
/// so stale files fail with a clear error instead of a misparsed node
/// count; version 3 packs the monotone/small-integer node payload
/// (page sets, clocks, alpha, seqs) as delta+varints (util/varint.h).
/// Bump on any layout change.
inline constexpr std::uint32_t kCpgFormatVersion = 3;
/// Oldest generation this build still loads. Version-2 files (and the
/// version-2 graphs nested inside version-2 shard stores) stay
/// readable; writers always emit the current version unless asked for
/// a compatibility export.
inline constexpr std::uint32_t kCpgMinReadVersion = 2;

/// The three sections of a whole-graph file, decoded but not indexed.
/// A shard file nests its local nodes and intra-shard edges in this
/// form; the shard store reads them as plain arrays and builds only
/// the lookups its queries walk (shard/store.h), never a Graph.
struct GraphParts {
  std::vector<SubComputation> nodes;  ///< node ids dense in index order
  std::vector<Edge> edges;            ///< endpoints checked in range
  std::vector<sync::SyncEvent> schedule;
};

/// Compact binary encoding (little-endian). Layout: magic "CPG1",
/// format version, node count, nodes, edge count, edges, schedule.
/// `version` selects the generation to emit -- kCpgFormatVersion for
/// normal writes, 2 for compatibility exports (the v2 store writer
/// shim the compat tests and size benchmarks build against).
/// serialize() is serialize_parts() over the graph's sections, so a
/// Graph and a shard's nested parts encode to the same bytes.
[[nodiscard]] std::vector<std::uint8_t> serialize_parts(
    std::span<const SubComputation> nodes, std::span<const Edge> edges,
    std::span<const sync::SyncEvent> schedule,
    std::uint32_t version = kCpgFormatVersion);
[[nodiscard]] std::vector<std::uint8_t> serialize(
    const Graph& graph, std::uint32_t version = kCpgFormatVersion);

/// Inverse of serialize_parts(): decodes and checks structure (header,
/// lengths, dense node ids, edge endpoints in range) but builds no
/// index. Page sets come back sorted and duplicate-free, as a Graph
/// holds them. A malformed, truncated, or wrong-version buffer comes
/// back as kInvalidArgument with a precise message. Accepts a view so
/// nested sections (a shard file's embedded parts) decode in place
/// without copying the payload.
[[nodiscard]] Result<GraphParts> deserialize_parts_checked(
    std::span<const std::uint8_t> bytes);

/// Inverse of serialize(): deserialize_parts_checked() plus the Graph
/// index build, with the same typed errors. The form tools load
/// whole-graph files through.
[[nodiscard]] Result<Graph> deserialize_checked(
    std::span<const std::uint8_t> bytes);

/// Throwing form of deserialize_checked() for callers with established
/// exception flows (the snapshot ring). Throws std::runtime_error with
/// the same message a Status would carry.
[[nodiscard]] Graph deserialize(std::span<const std::uint8_t> bytes);

/// Human-readable dump, one node per line plus edges; the shape a
/// `perf script` post-processor would print.
[[nodiscard]] std::string to_text(const Graph& graph);

/// Graphviz dot, for the examples' visual output.
[[nodiscard]] std::string to_dot(const Graph& graph);

}  // namespace inspector::cpg
