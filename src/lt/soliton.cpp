#include "lt/soliton.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace ltnc::lt {

std::vector<double> ideal_soliton_weights(std::size_t k) {
  LTNC_CHECK_MSG(k >= 1, "k must be at least 1");
  std::vector<double> w(k, 0.0);
  w[0] = 1.0 / static_cast<double>(k);
  for (std::size_t d = 2; d <= k; ++d) {
    w[d - 1] = 1.0 / (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  return w;
}

std::vector<double> robust_soliton_weights(std::size_t k,
                                           const RobustSolitonParams& params) {
  LTNC_CHECK_MSG(k >= 1, "k must be at least 1");
  LTNC_CHECK_MSG(params.c > 0.0 && params.delta > 0.0 && params.delta < 1.0,
                 "invalid Robust Soliton parameters");
  std::vector<double> w = ideal_soliton_weights(k);
  const double kd = static_cast<double>(k);
  const double R = params.c * std::log(kd / params.delta) * std::sqrt(kd);
  // Spike position k/R clamped into [1, k].
  const auto spike = static_cast<std::size_t>(
      std::clamp(kd / R, 1.0, kd));
  for (std::size_t d = 1; d < spike; ++d) {
    w[d - 1] += R / (static_cast<double>(d) * kd);
  }
  w[spike - 1] += R * std::log(R / params.delta) / kd;
  // Normalise by β = Σ(ρ + τ).
  double beta = 0.0;
  for (double x : w) beta += x;
  for (double& x : w) x /= beta;
  return w;
}

DegreeLut::DegreeLut(const std::vector<double>& weights) {
  LTNC_CHECK_MSG(!weights.empty(), "degree LUT needs weights");
  double total = 0.0;
  for (double w : weights) {
    LTNC_CHECK_MSG(w >= 0.0, "degree weights must be non-negative");
    total += w;
  }
  LTNC_CHECK_MSG(total > 0.0, "degree weights must not all be zero");

  // Fixed-point CDF: cdf_[i] = round(P(deg ≤ i+1) · 2⁶⁴), saturating the
  // final entry at 2⁶⁴−1 so the sampler's forward walk cannot run off
  // the end for any 64-bit draw.
  cdf_.resize(weights.size());
  double cum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i] / total;
    const double scaled = std::min(cum, 1.0) * 0x1p64;
    cdf_[i] = scaled >= 0x1p64 ? ~std::uint64_t{0}
                               : static_cast<std::uint64_t>(scaled);
  }
  cdf_.back() = ~std::uint64_t{0};

  // Bucket table: entry t points at the first degree whose CDF exceeds
  // the bucket's lower bound, so every draw starts its walk at most one
  // bucket-width of probability away from its answer. Two entries at
  // least, so the index shift stays below 64.
  const std::size_t entries =
      std::clamp(std::bit_ceil(cdf_.size()), std::size_t{2}, kMaxEntries);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(entries));
  start_.resize(entries);
  std::size_t d = 0;
  for (std::size_t t = 0; t < entries; ++t) {
    const std::uint64_t lower = static_cast<std::uint64_t>(t) << shift_;
    while (d + 1 < cdf_.size() && cdf_[d] <= lower) ++d;
    start_[t] = static_cast<std::uint32_t>(d);
  }
}

RobustSoliton::RobustSoliton(std::size_t k, RobustSolitonParams params)
    : ripple_(params.c * std::log(static_cast<double>(k) / params.delta) *
              std::sqrt(static_cast<double>(k))),
      lut_(robust_soliton_weights(k, params)) {}

double RobustSoliton::mean_degree() const {
  double mean = 0.0;
  for (std::size_t d = 1; d <= k(); ++d) {
    mean += static_cast<double>(d) * probability(d);
  }
  return mean;
}

}  // namespace ltnc::lt
