// Streaming statistics used by the evaluation harness.
//
// RunningStats implements Welford's online algorithm, cheap enough to be
// left enabled inside the codecs, which is how the paper's in-text
// statistics (degree-retry rate, occurrence variance, …) are collected.
#pragma once

#include <cstddef>
#include <limits>

namespace ltnc {

class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;  ///< population variance
  double stddev() const;
  /// stddev / mean — the paper's "relative standard deviation" (§III-B.3).
  double relative_stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  void merge(const RunningStats& other);
  void reset() { *this = RunningStats(); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ltnc
