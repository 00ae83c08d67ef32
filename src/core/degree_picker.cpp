#include "core/degree_picker.hpp"

#include <algorithm>

namespace ltnc::core {

DegreePicker::DegreePicker(const lt::RobustSoliton& soliton,
                           const DegreeIndex& index,
                           const CoverageTracker& coverage,
                           bool enforce_bounds)
    : soliton_(soliton),
      index_(index),
      coverage_(coverage),
      enforce_bounds_(enforce_bounds) {}

bool DegreePicker::reachable(std::size_t d) const {
  if (d == 0) return false;
  // Bound 1: decoded natives are degree-1 resources, stored packets carry
  // their current degree.
  const std::uint64_t mass =
      coverage_.decoded_count() + index_.weighted_sum_up_to(d);
  if (mass < d) return false;
  // Bound 2: enough distinct natives within reach.
  return coverage_.coverage(d) >= d;
}

std::size_t DegreePicker::max_reachable() const {
  // Bounds are monotone in d only piecewise, so walk down from the largest
  // plausible degree. Used only on retry exhaustion — not a hot path.
  const std::size_t cap =
      std::min(coverage_.coverage(soliton_.k()), soliton_.k());
  for (std::size_t d = cap; d >= 1; --d) {
    if (reachable(d)) return d;
  }
  return 0;
}

std::optional<std::size_t> DegreePicker::pick(Rng& rng) {
  if (index_.total_packets() == 0 && coverage_.decoded_count() == 0) {
    return std::nullopt;  // nothing to recode from
  }
  std::size_t draw = soliton_.sample(rng);
  if (!enforce_bounds_ || reachable(draw)) {
    ++stats_.picks;
    ++stats_.first_accepted;
    return draw;
  }
  for (std::size_t attempt = 0; attempt < kMaxRetries; ++attempt) {
    ++stats_.retries_total;
    draw = soliton_.sample(rng);
    if (reachable(draw)) {
      ++stats_.picks;
      return draw;
    }
  }
  // Retry budget exhausted — extremely sparse holdings. Fall back to the
  // largest degree the bounds admit so the node still pushes something.
  ++stats_.exhausted;
  const std::size_t fallback = max_reachable();
  if (fallback == 0) return std::nullopt;
  ++stats_.picks;
  return fallback;
}

}  // namespace ltnc::core
