// Order statistics of small samples (latencies, per-failure ratios,
// repetition wall times), shared so every report computes them alike.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace coyote::util {

/// Nearest-rank percentile of an unsorted sample: the ceil(q*n)-th
/// smallest value (q in [0, 1]; q = 0 gives the minimum). 0 when empty.
[[nodiscard]] inline double nearestRank(std::vector<double> sample,
                                        double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(sample.size(), static_cast<std::size_t>(rank)) - 1;
  return sample[idx];
}

/// Median of an unsorted sample (the mean of the two middle values when
/// the size is even). 0 when empty.
[[nodiscard]] inline double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2]
                    : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

}  // namespace coyote::util
