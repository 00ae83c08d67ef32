// Degree picking with reachability heuristics (paper §III-B.1).
//
// A recoding node draws the target degree of its fresh packet from the
// Robust Soliton distribution, but a drawn degree may be unreachable from
// the encoded packets it holds. The paper uses two upper bounds to discard
// hopeless draws immediately and redraw:
//   (1) Σ_{i=1..d} i·n(i) ≥ d — total degree mass of usable packets
//       (decoded natives count as degree-1 resources);
//   (2) coverage(d) ≥ d — enough distinct natives are touched by usable
//       packets.
// Neither bound is exact (the paper gives {x1⊕x2, x3⊕x4} vs degree 3 as a
// false accept), but in the paper's runs the first draw passes 99.9 % of
// the time with 1.02 retries otherwise — statistics this class records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "core/coverage.hpp"
#include "core/degree_index.hpp"
#include "lt/soliton.hpp"

namespace ltnc::core {

struct DegreePickStats {
  std::uint64_t picks = 0;            ///< successful pick() calls
  std::uint64_t first_accepted = 0;   ///< first draw passed both bounds
  std::uint64_t retries_total = 0;    ///< redraws across all picks
  std::uint64_t exhausted = 0;        ///< retry budget ran out (fell back)

  double first_accept_rate() const {
    return picks == 0 ? 0.0
                      : static_cast<double>(first_accepted) /
                            static_cast<double>(picks);
  }
  /// Average number of draws for picks that needed at least one redraw —
  /// the paper reports 1.02 retries.
  double mean_retries_when_retried() const {
    const std::uint64_t retried = picks - first_accepted;
    return retried == 0 ? 0.0
                        : static_cast<double>(retries_total) /
                              static_cast<double>(retried);
  }
};

class DegreePicker {
 public:
  DegreePicker(const lt::RobustSoliton& soliton, const DegreeIndex& index,
               const CoverageTracker& coverage, bool enforce_bounds = true);

  /// True when neither bound rules out degree d.
  bool reachable(std::size_t d) const;

  /// Draws degrees until one passes the bounds (or kMaxRetries redraws
  /// fail, in which case the largest degree both bounds admit is used).
  /// Returns nullopt when the node holds nothing at all.
  std::optional<std::size_t> pick(Rng& rng);

  const DegreePickStats& stats() const { return stats_; }

 private:
  std::size_t max_reachable() const;

  /// Redraws before falling back to max_reachable().
  static constexpr std::size_t kMaxRetries = 256;

  const lt::RobustSoliton& soliton_;
  const DegreeIndex& index_;
  const CoverageTracker& coverage_;
  bool enforce_bounds_;
  DegreePickStats stats_;
};

}  // namespace ltnc::core
