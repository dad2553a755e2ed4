#include "src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p in a sample of n: ceil(p/100 * n),
// computed in integer arithmetic on p scaled to 1e-4 so that e.g. p=99 of
// n=100 is exactly rank 99 and not 99.00000000000001 -> 100.
size_t RankOf(size_t n, double p) {
  const uint64_t p_scaled = static_cast<uint64_t>(std::llround(p * 10000.0));
  const uint64_t num = p_scaled * n;
  uint64_t rank = (num + 1000000 - 1) / 1000000;
  rank = std::clamp<uint64_t>(rank, 1, n);
  return static_cast<size_t>(rank);
}

}  // namespace

std::optional<double> NearestRankSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty() || !(p > 0.0) || p > 100.0) {
    return std::nullopt;
  }
  return sorted[RankOf(sorted.size(), p) - 1];
}

std::optional<double> NearestRank(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return NearestRankSorted(values, p);
}

bool SupportsPercentile(size_t n, double p, size_t min_beyond) {
  if (n == 0) {
    return false;
  }
  return n - RankOf(n, p) >= min_beyond;
}

std::optional<double> HighestSupportedPercentile(size_t n) {
  std::optional<double> best;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SupportsPercentile(n, p)) {
      best = p;
    }
  }
  return best;
}

void Reservoir::Add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  const uint64_t slot = rng_.Below(seen_);
  if (slot < capacity_) {
    values_[slot] = value;
  }
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  s.p50 = *NearestRankSorted(values, 50);
  s.p99 = *NearestRankSorted(values, 99);
  if (auto top = HighestSupportedPercentile(values.size())) {
    s.top_p = *top;
    s.top_value = *NearestRankSorted(values, *top);
  }
  return s;
}

}  // namespace perfbench
