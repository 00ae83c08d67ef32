#include "metrics/experiment.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ltnc::metrics {

MonteCarloResult run_monte_carlo(session::Scheme scheme,
                                 const dissem::SimConfig& base_config,
                                 std::size_t runs) {
  LTNC_CHECK_MSG(runs >= 1, "at least one run required");
  MonteCarloResult agg;
  agg.scheme = scheme;
  agg.runs = runs;

  double decode_control = 0.0;
  double decode_data = 0.0;
  double recode_control = 0.0;
  double recode_data = 0.0;

  double first_accept = 0.0;
  double retries = 0.0;
  double target_rate = 0.0;
  double deviation = 0.0;
  double occ_sigma = 0.0;
  double red_fraction = 0.0;
  std::size_t ltnc_runs = 0;
  std::vector<std::vector<double>> traces;
  traces.reserve(runs);

  for (std::size_t r = 0; r < runs; ++r) {
    dissem::SimConfig cfg = base_config;
    cfg.seed = base_config.seed + r;
    const dissem::SimResult res = dissem::run_simulation(scheme, cfg);

    if (res.all_complete) ++agg.runs_fully_converged;
    agg.payloads_verified &= res.payloads_verified;
    agg.mean_completion.add(res.mean_completion());
    agg.rounds_to_finish.add(static_cast<double>(res.rounds_run));
    agg.overhead.add(res.overhead());
    agg.abort_rate.add(res.traffic.abort_rate());

    const auto n = static_cast<double>(cfg.num_nodes);
    decode_control += static_cast<double>(res.decode_ops.control_total()) / n;
    decode_data += static_cast<double>(res.decode_ops.data_word_ops) / n;
    recode_control += static_cast<double>(res.recode_ops.control_total()) / n;
    recode_data += static_cast<double>(res.recode_ops.data_word_ops) / n;

    traces.push_back(res.convergence_trace);

    if (scheme == session::Scheme::kLtnc) {
      ++ltnc_runs;
      first_accept += res.ltnc_degree_stats.first_accept_rate();
      retries += res.ltnc_degree_stats.mean_retries_when_retried();
      target_rate += res.ltnc_build_stats.target_rate();
      deviation += res.ltnc_build_stats.relative_deviation.mean();
      occ_sigma += res.ltnc_occurrence_rel_stddev;
      red_fraction += res.ltnc_stats.receives == 0
                          ? 0.0
                          : static_cast<double>(
                                res.ltnc_stats.redundant_rejected +
                                res.ltnc_stats.dropped_during_decode) /
                                static_cast<double>(res.ltnc_stats.receives);
    }
  }

  const auto runs_d = static_cast<double>(runs);
  // Element-wise mean of the traces; shorter runs hold their final value
  // (a converged run stays at 1.0, a stalled run stays where it stalled).
  std::size_t longest = 0;
  for (const auto& t : traces) longest = std::max(longest, t.size());
  agg.convergence_trace.assign(longest, 0.0);
  for (const auto& t : traces) {
    for (std::size_t i = 0; i < longest; ++i) {
      const double v = i < t.size() ? t[i] : (t.empty() ? 0.0 : t.back());
      agg.convergence_trace[i] += v;
    }
  }
  for (double& v : agg.convergence_trace) v /= runs_d;
  agg.decode_control_per_node = decode_control / runs_d;
  agg.decode_data_words_per_node = decode_data / runs_d;
  agg.recode_control_per_node = recode_control / runs_d;
  agg.recode_data_words_per_node = recode_data / runs_d;

  if (ltnc_runs > 0) {
    const auto lr = static_cast<double>(ltnc_runs);
    agg.degree_first_accept_rate = first_accept / lr;
    agg.degree_mean_retries = retries / lr;
    agg.build_target_rate = target_rate / lr;
    agg.build_mean_relative_deviation = deviation / lr;
    agg.occurrence_rel_stddev = occ_sigma / lr;
    agg.redundancy_hit_fraction = red_fraction / lr;
  }
  return agg;
}

}  // namespace ltnc::metrics
