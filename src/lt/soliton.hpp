// Soliton degree distributions for LT codes (Luby, FOCS 2002).
//
// The Robust Soliton distribution is the statistical backbone of LT codes
// and therefore of LTNC: every encoded packet the source emits — and every
// packet an LTNC node recodes — draws its degree from it (paper Fig. 2).
// It is the Ideal Soliton ρ(·) plus a correction τ(·) that (a) boosts
// degree-1/2 mass so belief propagation keeps a non-empty ripple and
// (b) adds a spike at k/R ensuring every native packet is eventually
// covered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ltnc::lt {

/// Ideal Soliton: ρ(1) = 1/k, ρ(d) = 1/(d(d−1)) for 2 ≤ d ≤ k.
/// Returned vector is indexed by degree−1 and sums to 1.
std::vector<double> ideal_soliton_weights(std::size_t k);

struct RobustSolitonParams {
  /// Luby's c constant: scales the spike position R = c·ln(k/δ)·√k.
  double c = 0.1;
  /// Decoder failure probability bound δ.
  double delta = 0.05;
};

/// Robust Soliton: μ(d) = (ρ(d) + τ(d)) / β, normalised. Indexed by
/// degree−1.
std::vector<double> robust_soliton_weights(std::size_t k,
                                           const RobustSolitonParams& params);

/// Fixed-point inverse-CDF degree sampler (the pyrofling lt_lut shape):
/// one 64-bit draw, integer compares only, no floating point at sample
/// time. The top bits of the draw index a bucket table holding the first
/// candidate degree for that CDF bucket; a short forward walk over the
/// fixed-point CDF finishes the inversion. Each degree's probability
/// matches its real-valued weight to within 2⁻⁶⁴ rounding.
///
/// The table has bit_ceil(k) entries, clamped to [2, kMaxEntries]. Its
/// size never changes a draw: the walk always ends at the first degree
/// whose CDF exceeds the draw, and the table only chooses where the walk
/// starts. The expected walk is at most k / entries steps, so at most one
/// for k ≤ 4,096. Sizing the table from k keeps the build O(k), which
/// matters because every LTNC node and every source builds one: a fixed
/// 4,096-entry table would be eight times the CDF at k = 512.
class DegreeLut {
 public:
  static constexpr std::size_t kMaxEntries = 4096;

  /// Builds from unnormalised non-negative weights, indexed by degree−1.
  explicit DegreeLut(const std::vector<double>& weights);

  std::size_t k() const { return cdf_.size(); }

  /// Draws a degree in [1, k] — exactly one rng.next().
  std::size_t sample(Rng& rng) const {
    const std::uint64_t u = rng.next();
    std::size_t d = start_[u >> shift_];
    while (d + 1 < cdf_.size() && u >= cdf_[d]) ++d;
    return d + 1;
  }

  /// Fixed-point probability mass of degree d ∈ [1, k] (numerator of
  /// x/2⁶⁴). The top degree's mass is one ulp short: the CDF saturates at
  /// 2⁶⁴−1.
  std::uint64_t mass(std::size_t d) const {
    const std::uint64_t hi = cdf_[d - 1];
    const std::uint64_t lo = d >= 2 ? cdf_[d - 2] : 0;
    return hi - lo;
  }

 private:
  std::vector<std::uint64_t> cdf_;    ///< cdf_[i] ≈ P(deg ≤ i+1)·2⁶⁴
  std::vector<std::uint32_t> start_;  ///< bucket → first candidate index
  unsigned shift_ = 63;               ///< 64 − log2(start_.size())
};

/// Sampler for packet degrees following the Robust Soliton distribution.
class RobustSoliton {
 public:
  explicit RobustSoliton(std::size_t k, RobustSolitonParams params = {});

  std::size_t k() const { return lut_.k(); }

  /// Draws a degree in [1, k] — exactly one rng.next().
  std::size_t sample(Rng& rng) const { return lut_.sample(rng); }

  /// P(degree = d), as the sampler draws it.
  double probability(std::size_t d) const {
    return (d >= 1 && d <= k()) ? static_cast<double>(lut_.mass(d)) * 0x1p-64
                                : 0.0;
  }

  /// Expected degree — Θ(log k); drives the paper's O(m·k·log k) decoding
  /// bound.
  double mean_degree() const;

  /// R = c·ln(k/δ)·√k, the expected ripple size.
  double ripple() const { return ripple_; }

 private:
  double ripple_;
  DegreeLut lut_;
};

}  // namespace ltnc::lt
