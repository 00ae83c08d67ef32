// Monte-Carlo experiment harness over the epidemic simulation.
//
// The paper averages 25 Monte-Carlo runs per data point (§IV-B). This
// module runs R seeds of a SimConfig per scheme and aggregates the metrics
// the figures plot: completion time (Fig. 7b), overhead (Fig. 7c), the
// convergence trace (Fig. 7a), per-plane operation counts (Fig. 8 support)
// and LTNC's in-text statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "dissemination/simulation.hpp"

namespace ltnc::metrics {

struct MonteCarloResult {
  session::Scheme scheme{};
  std::size_t runs = 0;
  std::size_t runs_fully_converged = 0;
  bool payloads_verified = true;

  RunningStats mean_completion;   ///< per-run mean completion round
  RunningStats rounds_to_finish;  ///< per-run total rounds
  RunningStats overhead;          ///< per-run communication overhead
  RunningStats abort_rate;

  /// Per-node-and-run averages of the operation counters.
  double decode_control_per_node = 0.0;
  double decode_data_words_per_node = 0.0;
  double recode_control_per_node = 0.0;
  double recode_data_words_per_node = 0.0;

  /// Element-wise mean of the convergence traces (padded with 1.0 once a
  /// run has converged).
  std::vector<double> convergence_trace;

  // LTNC in-text statistics, aggregated over runs.
  double degree_first_accept_rate = 0.0;
  double degree_mean_retries = 0.0;
  double build_target_rate = 0.0;
  double build_mean_relative_deviation = 0.0;
  double occurrence_rel_stddev = 0.0;
  double redundancy_hit_fraction = 0.0;  ///< hits / receives
};

/// Runs `runs` simulations with seeds seed, seed+1, … and aggregates.
MonteCarloResult run_monte_carlo(session::Scheme scheme,
                                 const dissem::SimConfig& base_config,
                                 std::size_t runs);

}  // namespace ltnc::metrics
