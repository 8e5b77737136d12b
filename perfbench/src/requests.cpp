#include "requests.h"

namespace perfbench {

namespace {

/// Anchor skew of the Zipf-anchored mix: with s = 1 over 10^4..10^5
/// nodes the hottest 128 anchors draw roughly half of all requests.
constexpr double kAnchorSkew = 1.0;
/// Pages a page-scoped races request covers, and its report limit.
constexpr std::size_t kRaceWindow = 8;
constexpr std::uint64_t kRaceLimit = 32;

}  // namespace

RequestGenerator::RequestGenerator(std::uint64_t nodes,
                                   std::span<const std::uint64_t> pages,
                                   RequestMix mix, std::uint64_t seed)
    : nodes_(nodes),
      pages_(pages.begin(), pages.end()),
      mix_(mix),
      rng_(seed),
      node_zipf_(mix.zipf_anchors ? nodes : 1, kAnchorSkew, seed ^ 0x11) {}

std::uint64_t RequestGenerator::node() {
  return mix_.zipf_anchors ? node_zipf_.sample(rng_) : rng_.below(nodes_);
}

std::uint64_t RequestGenerator::page() {
  return pages_[rng_.below(pages_.size())];
}

Request RequestGenerator::next(std::uint64_t id) {
  Request r;
  const std::string head = "{\"id\":" + std::to_string(id) + ",\"op\":\"";
  if (mix_.scan_one_in != 0 && rng_.below(mix_.scan_one_in) == 0) {
    r.scan = true;
    switch (rng_.below(4)) {
      case 0: {
        // Page-scoped: every page outside a window of kRaceWindow
        // consecutive pages is ignored, so the scan covers only the
        // window (an analyst asking "do these pages race?").
        r.kind = "races";
        const std::size_t lo = rng_.below(pages_.size());
        std::string ignored;
        for (std::size_t i = 0; i < pages_.size(); ++i) {
          if (i >= lo && i < lo + kRaceWindow) continue;
          if (!ignored.empty()) ignored += ",";
          ignored += std::to_string(pages_[i]);
        }
        r.line = head + "races\",\"limit\":" + std::to_string(kRaceLimit) +
                 ",\"ignored_pages\":[" + ignored + "]}";
        break;
      }
      case 1: {
        r.kind = "taint";
        r.line = head + "taint\",\"seed_pages\":[" + std::to_string(page()) +
                 "," + std::to_string(page()) + "]}";
        break;
      }
      case 2:
        r.kind = "invalidate";
        r.line = head + "invalidate\",\"changed_pages\":[" +
                 std::to_string(page()) + "]}";
        break;
      default:
        r.kind = "critical_path";
        r.line = head + "critical_path\"}";
        break;
    }
    return r;
  }
  const std::uint64_t first = mix_.slices ? 0 : 2;
  const auto pick = first + rng_.below(std::size(kPointKinds) - first);
  r.kind = kPointKinds[pick];
  if (pick == 4) {
    r.line = head + "page_accessors\",\"page\":" + std::to_string(page()) + "}";
    return r;
  }
  const std::uint64_t n = node();
  r.anchor = static_cast<std::uint32_t>(n);
  if (pick == 5) {
    r.line = head + "happens_before\",\"first\":" + std::to_string(n) +
             ",\"second\":" + std::to_string(node()) + "}";
  } else {
    r.line = head + r.kind + "\",\"node\":" + std::to_string(n) + "}";
  }
  return r;
}

}  // namespace perfbench
