#ifndef PSIBENCH_STATS_H_
#define PSIBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace psibench {

/// Nearest-rank percentile of `samples` (p in [0, 1]); 0 when empty. The
/// nearest-rank form always returns an observed sample, so a reported p99 is
/// a latency some request really saw.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples strictly beyond the nearest-rank p-th percentile of `n` samples.
inline size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return n > index ? n - index : 0;
}

/// The highest of the standard reporting percentiles (p99.9, p99, p95, p90,
/// p75, p50) that has at least `min_beyond` samples beyond it among `n`
/// samples; 0 when even the median is unsupported. A tail percentile with
/// fewer samples beyond it is a statement about one or two requests, not
/// about the distribution, so the benchmark reports it only when this
/// helper says the sample supports it.
inline double HighestSupportedPercentile(size_t n, size_t min_beyond = 10) {
  for (double p : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

inline double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double s : samples) total += s;
  return total;
}

inline double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace psibench

#endif  // PSIBENCH_STATS_H_
