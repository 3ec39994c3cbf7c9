#include "src/base/histogram.h"

#include <cassert>
#include <cstddef>
#include <numeric>

namespace base {

int64_t Histogram::min() const {
  assert(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

int64_t Histogram::max() const {
  assert(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

int64_t Histogram::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), int64_t{0});
}

double Histogram::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return static_cast<double>(sum()) / static_cast<double>(samples_.size());
}

void Histogram::Merge(const Histogram& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

int64_t Histogram::Percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0.0 && p <= 100.0);
  std::vector<int64_t> copy = samples_;
  const double rank = p / 100.0 * static_cast<double>(copy.size() - 1);
  const auto nth = copy.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(copy.begin(), nth, copy.end());
  return *nth;
}

}  // namespace base
