// Seeded request streams for the serving workloads.
//
// Point kinds address one node or page: backward_slice, forward_slice,
// latest_writers, data_dependencies, page_accessors, happens_before
// (the two slices are optional, see RequestMix::slices).
// Scan kinds walk the whole history or a page window of it: races
// (page-scoped, with a limit), taint, invalidate, critical_path. Requests are wire
// lines (query/wire.h) without page_size, so each reply carries the
// whole answer and holds no cursor.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "history.h"

namespace perfbench {

struct RequestMix {
  /// Zipf-skewed node anchors (hot nodes repeat, so the engine's
  /// result cache gets hits) or uniform ones (it barely helps). Page
  /// anchors are always uniform: the history's own page popularity is
  /// Zipf-skewed already, and a second, independently permuted skew
  /// would make the cost of a run swing with how the two line up.
  bool zipf_anchors = true;
  /// One request in `scan_one_in` is a scan kind; 0 = point kinds only.
  std::uint32_t scan_one_in = 0;
  /// Whether the point kinds include the two slices. The sharded
  /// backend expands a slice node by node and pins every shard holding
  /// an accessor of each page touched, so under a budget smaller than
  /// the store one slice costs thousands of shard loads (minutes on
  /// the served history); the out-of-core mix leaves slices out.
  bool slices = true;
};

struct Request {
  std::string line;
  const char* kind = "";
  bool scan = false;
  /// Node the request is anchored at (kInvalidNode for page- and
  /// whole-history requests); the router routes by its shard.
  std::uint32_t anchor = 0xFFFFFFFFu;
};

inline constexpr const char* kPointKinds[] = {
    "backward_slice",    "forward_slice",  "latest_writers",
    "data_dependencies", "page_accessors", "happens_before"};

class RequestGenerator {
 public:
  /// `pages` is the history's touched-page universe (Graph::pages()).
  RequestGenerator(std::uint64_t nodes, std::span<const std::uint64_t> pages,
                   RequestMix mix, std::uint64_t seed);

  /// The next request of the stream, carrying wire id `id`.
  [[nodiscard]] Request next(std::uint64_t id);

 private:
  std::uint64_t node();
  std::uint64_t page();

  std::uint64_t nodes_;
  std::vector<std::uint64_t> pages_;
  RequestMix mix_;
  Rng rng_;
  Zipf node_zipf_;
};

}  // namespace perfbench
