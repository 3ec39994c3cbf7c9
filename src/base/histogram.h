// Latency statistics accumulator used by the benchmark harnesses.

#ifndef HIVE_SRC_BASE_HISTOGRAM_H_
#define HIVE_SRC_BASE_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace base {

// Records samples (typically nanoseconds) and reports summary statistics.
// Keeps all samples; experiments in this repo record at most a few million.
class Histogram {
 public:
  Histogram() = default;

  void Record(int64_t sample) { samples_.push_back(sample); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  int64_t min() const;
  int64_t max() const;
  int64_t sum() const;
  double mean() const;

  // p in [0, 100]. Exact order statistic (selected from a copy on demand).
  int64_t Percentile(double p) const;

  // Appends every sample of `other` (per-cell SLO histograms merge into the
  // machine-wide distribution). Quantiles of the merged histogram are exact
  // order statistics of the combined sample set, not an approximation.
  void Merge(const Histogram& other);

  void Clear() { samples_.clear(); }

 private:
  std::vector<int64_t> samples_;
};

}  // namespace base

#endif  // HIVE_SRC_BASE_HISTOGRAM_H_
