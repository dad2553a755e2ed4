// Sample statistics for the benchmark: nearest-rank percentiles and the
// reporting rule for tails (a percentile is reported only when at least ten
// samples lie beyond it).

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/gen.h"

namespace perfbench {

// Nearest-rank percentile of `values` (need not be sorted): the smallest
// sample such that at least p% of the samples are <= it. p in (0, 100].
// Returns nullopt for an empty sample.
std::optional<double> NearestRank(std::vector<double> values, double p);

// Same, on an already sorted sample.
std::optional<double> NearestRankSorted(const std::vector<double>& sorted, double p);

// True when a sample of `n` holds at least `min_beyond` samples strictly
// above the nearest-rank position of percentile p.
bool SupportsPercentile(size_t n, double p, size_t min_beyond = 10);

// The highest of {50, 90, 99, 99.9, 99.99} that a sample of `n` supports
// under SupportsPercentile; nullopt when not even the median is supported.
std::optional<double> HighestSupportedPercentile(size_t n);

// A latency series with its count, for printing "p50=... (n=...)".
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double top_p = 0;     // highest supported percentile (0 if none)
  double top_value = 0;
};

Summary Summarize(std::vector<double> values);

// A uniform random sample of at most `capacity` values from a stream of any
// length (reservoir sampling), so that a run's memory does not grow with
// how many values it produced.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : capacity_(capacity), rng_(seed) {
    values_.reserve(capacity);
  }
  void Add(double value);
  const std::vector<double>& values() const { return values_; }
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
