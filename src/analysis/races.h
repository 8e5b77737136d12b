// The race report the race kernel (analysis/kernels.h, find_races)
// returns.
//
// Two sub-computations race when they are concurrent under the
// happens-before partial order (vector clocks incomparable) and their
// page access sets conflict (write/write or read/write overlap). This
// is the FastTrack-style check the paper's debugging case study builds
// on, at INSPECTOR's page granularity -- so a report means "these two
// unordered code regions touched the same page", which catches true
// races and also flags false sharing (itself actionable; cf. Sheriff).
#pragma once

#include <cstdint>
#include <ostream>

#include "cpg/node.h"

namespace inspector::analysis {

struct RaceReport {
  cpg::NodeId first = cpg::kInvalidNode;
  cpg::NodeId second = cpg::kInvalidNode;
  std::uint64_t page = 0;
  bool write_write = false;  ///< else read/write

  bool operator==(const RaceReport&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const RaceReport& report) {
  return os << (report.write_write ? "W/W" : "R/W") << " race on page "
            << report.page << " between node " << report.first << " and "
            << report.second;
}

}  // namespace inspector::analysis
