#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ltnc {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::relative_stddev() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace ltnc
