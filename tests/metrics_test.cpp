#include "metrics/experiment.hpp"

#include <gtest/gtest.h>

namespace ltnc::metrics {
namespace {

using session::Scheme;
using dissem::SimConfig;

SimConfig tiny() {
  SimConfig cfg;
  cfg.num_nodes = 16;
  cfg.k = 24;
  cfg.payload_bytes = 8;
  cfg.seed = 3;
  cfg.max_rounds = 20000;
  return cfg;
}

TEST(MonteCarlo, RequiresAtLeastOneRun) {
  EXPECT_THROW(run_monte_carlo(Scheme::kWc, tiny(), 0), std::logic_error);
}

TEST(MonteCarlo, SingleRunMatchesDirectSimulation) {
  const SimConfig cfg = tiny();
  const auto mc = run_monte_carlo(Scheme::kWc, cfg, 1);
  const auto direct = dissem::run_simulation(Scheme::kWc, cfg);
  EXPECT_EQ(mc.runs, 1u);
  EXPECT_DOUBLE_EQ(mc.mean_completion.mean(), direct.mean_completion());
  EXPECT_DOUBLE_EQ(mc.rounds_to_finish.mean(),
                   static_cast<double>(direct.rounds_run));
  EXPECT_DOUBLE_EQ(mc.overhead.mean(), direct.overhead());
}

TEST(MonteCarlo, SeedsVaryAcrossRuns) {
  const auto mc = run_monte_carlo(Scheme::kLtnc, tiny(), 4);
  EXPECT_EQ(mc.mean_completion.count(), 4u);
  // With distinct seeds the runs cannot all be identical.
  EXPECT_GT(mc.rounds_to_finish.stddev(), 0.0);
}

TEST(MonteCarlo, TracePaddingHoldsFinalValue) {
  // Runs of different lengths must average correctly: each trace holds its
  // final value once finished, so the aggregate tail converges to 1.0.
  const auto mc = run_monte_carlo(Scheme::kWc, tiny(), 3);
  ASSERT_FALSE(mc.convergence_trace.empty());
  EXPECT_NEAR(mc.convergence_trace.back(), 1.0, 1e-12);
  for (std::size_t i = 1; i < mc.convergence_trace.size(); ++i) {
    EXPECT_GE(mc.convergence_trace[i] + 1e-12, mc.convergence_trace[i - 1]);
  }
}

TEST(MonteCarlo, LtncFieldsZeroForOtherSchemes) {
  const auto mc = run_monte_carlo(Scheme::kRlnc, tiny(), 2);
  EXPECT_EQ(mc.degree_first_accept_rate, 0.0);
  EXPECT_EQ(mc.build_target_rate, 0.0);
  EXPECT_EQ(mc.occurrence_rel_stddev, 0.0);
}

TEST(MonteCarlo, OpCountersAveragedPerNode) {
  const auto mc = run_monte_carlo(Scheme::kRlnc, tiny(), 2);
  EXPECT_GT(mc.decode_control_per_node, 0.0);
  EXPECT_GT(mc.recode_control_per_node, 0.0);
}

}  // namespace
}  // namespace ltnc::metrics
