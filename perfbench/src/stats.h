// Order statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank definition: the p-th percentile of
// n samples is the ceil(p/100 * n)-th smallest. Every percentile is
// reported with its sample count and the number of samples strictly
// above its rank, so a reader can see whether a p99 rests on ten tail
// samples or on one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};

/// Nearest-rank percentile, p in (0, 100]. Empty input gives zeros.
[[nodiscard]] inline Percentile percentile(std::vector<double> samples,
                                           double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const auto rank = static_cast<std::size_t>(std::clamp(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())), 1.0,
      static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

/// The median as the midpoint of the two middle samples (the value
/// Python's statistics.median gives), for small sample sets such as
/// repeated set-ups and ingest passes.
[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double total = 0;
  for (const double v : samples) total += v;
  return total / static_cast<double>(samples.size());
}

}  // namespace perfbench
