#include "dissemination/simulation.hpp"

#include <gtest/gtest.h>

#include "metrics/experiment.hpp"

namespace ltnc::dissem {
namespace {

SimConfig small_config(std::size_t nodes = 24, std::size_t k = 32) {
  SimConfig cfg;
  cfg.num_nodes = nodes;
  cfg.k = k;
  cfg.payload_bytes = 16;
  cfg.seed = 7;
  cfg.max_rounds = 20000;
  cfg.source_pushes_per_round = 2;
  return cfg;
}

class SimulationAllSchemes
    : public ::testing::TestWithParam<session::Scheme> {};

TEST_P(SimulationAllSchemes, ConvergesAndVerifies) {
  const session::Scheme scheme = GetParam();
  const SimResult res = run_simulation(scheme, small_config());
  EXPECT_TRUE(res.all_complete)
      << session::scheme_name(scheme) << " stopped at " << res.rounds_run
      << " rounds with " << res.nodes_complete << " complete";
  EXPECT_TRUE(res.payloads_verified);
  EXPECT_EQ(res.completion_round.size(), 24u);
  EXPECT_GT(res.mean_completion(), 0.0);
  EXPECT_GE(res.traffic.attempts, res.traffic.payload_transfers);
  // Convergence trace is monotone and ends at 1.
  for (std::size_t i = 1; i < res.convergence_trace.size(); ++i) {
    EXPECT_GE(res.convergence_trace[i], res.convergence_trace[i - 1]);
  }
  EXPECT_DOUBLE_EQ(res.convergence_trace.back(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SimulationAllSchemes,
                         ::testing::Values(session::Scheme::kLtnc,
                                           session::Scheme::kRlnc,
                                           session::Scheme::kWc),
                         [](const auto& info) {
                           return session::scheme_name(info.param);
                         });

TEST(Simulation, DeterministicForSeed) {
  const SimConfig cfg = small_config();
  const SimResult a = run_simulation(session::Scheme::kLtnc, cfg);
  const SimResult b = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_EQ(a.rounds_run, b.rounds_run);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.traffic.attempts, b.traffic.attempts);
  EXPECT_EQ(a.traffic.payload_transfers, b.traffic.payload_transfers);
}

TEST(Simulation, SeedChangesOutcome) {
  SimConfig cfg = small_config();
  const SimResult a = run_simulation(session::Scheme::kLtnc, cfg);
  cfg.seed += 1;
  const SimResult b = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_NE(a.traffic.attempts, b.traffic.attempts);
}

TEST(Simulation, RlncAndWcHaveZeroOverhead) {
  // §IV-B: with exact redundancy detection every useless transfer aborts,
  // so completed nodes receive exactly k payloads.
  for (const session::Scheme scheme :
       {session::Scheme::kRlnc, session::Scheme::kWc}) {
    const SimResult res = run_simulation(scheme, small_config());
    ASSERT_TRUE(res.all_complete) << session::scheme_name(scheme);
    EXPECT_NEAR(res.overhead(), 0.0, 1e-12) << session::scheme_name(scheme);
  }
}

TEST(Simulation, LtncHasBoundedPositiveOverhead) {
  const SimResult res =
      run_simulation(session::Scheme::kLtnc, small_config(32, 64));
  ASSERT_TRUE(res.all_complete);
  EXPECT_GT(res.overhead(), 0.0);
  EXPECT_LT(res.overhead(), 1.5);  // sanity ceiling at tiny scale
}

TEST(Simulation, FeedbackNoneStillConverges) {
  SimConfig cfg = small_config();
  cfg.feedback = session::FeedbackMode::kNone;
  const SimResult res = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_TRUE(res.all_complete);
  EXPECT_EQ(res.traffic.aborted, 0u);
  EXPECT_EQ(res.traffic.attempts, res.traffic.payload_transfers);
}

TEST(Simulation, SmartFeedbackConverges) {
  SimConfig cfg = small_config();
  cfg.feedback = session::FeedbackMode::kSmart;
  const SimResult res = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_TRUE(res.all_complete);
  EXPECT_GT(res.traffic.feedback_bytes, 0u);
  EXPECT_GT(res.ltnc_stats.smart_degree1 + res.ltnc_stats.smart_degree2, 0u);
}

TEST(Simulation, GossipViewSamplerConverges) {
  SimConfig cfg = small_config();
  cfg.sampler.kind = net::PeerSamplerConfig::Kind::kGossipView;
  cfg.sampler.view_size = 8;
  const SimResult res = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_TRUE(res.all_complete);
}

TEST(Simulation, MaxRoundsCapRespected) {
  SimConfig cfg = small_config();
  cfg.max_rounds = 3;  // far too few to converge
  const SimResult res = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_FALSE(res.all_complete);
  EXPECT_EQ(res.rounds_run, 3u);
  EXPECT_EQ(res.convergence_trace.size(), 3u);
}

TEST(Simulation, StepApiMatchesRun) {
  const SimConfig cfg = small_config();
  EpidemicSimulation sim(session::Scheme::kWc, cfg);
  std::size_t steps = 0;
  while (!sim.all_complete() && steps < cfg.max_rounds) {
    sim.step();
    ++steps;
  }
  EXPECT_TRUE(sim.all_complete());
  const SimResult ref = run_simulation(session::Scheme::kWc, cfg);
  EXPECT_EQ(steps, ref.rounds_run);
}

TEST(MonteCarlo, AggregatesAcrossSeeds) {
  const SimConfig cfg = small_config();
  const auto mc = metrics::run_monte_carlo(session::Scheme::kLtnc, cfg, 3);
  EXPECT_EQ(mc.runs, 3u);
  EXPECT_EQ(mc.runs_fully_converged, 3u);
  EXPECT_TRUE(mc.payloads_verified);
  EXPECT_EQ(mc.mean_completion.count(), 3u);
  EXPECT_GT(mc.mean_completion.mean(), 0.0);
  EXPECT_GT(mc.degree_first_accept_rate, 0.5);
  EXPECT_FALSE(mc.convergence_trace.empty());
  EXPECT_NEAR(mc.convergence_trace.back(), 1.0, 1e-9);
  EXPECT_GT(mc.decode_control_per_node, 0.0);
}

class LossInjection
    : public ::testing::TestWithParam<std::tuple<session::Scheme, double>> {};

TEST_P(LossInjection, ConvergesDespitePacketLoss) {
  const auto [scheme, loss] = GetParam();
  SimConfig cfg = small_config();
  cfg.loss_rate = loss;
  cfg.max_rounds = 60000;
  const SimResult res = run_simulation(scheme, cfg);
  EXPECT_TRUE(res.all_complete)
      << session::scheme_name(scheme) << " with " << loss * 100 << "% loss";
  EXPECT_TRUE(res.payloads_verified);
  EXPECT_GT(res.traffic.lost, 0u);
  // Losses cost time: the lossy run must be slower than the lossless one.
  SimConfig clean = small_config();
  const SimResult baseline = run_simulation(scheme, clean);
  EXPECT_GT(res.mean_completion(), 0.8 * baseline.mean_completion());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndRates, LossInjection,
    ::testing::Combine(::testing::Values(session::Scheme::kLtnc,
                                         session::Scheme::kRlnc,
                                         session::Scheme::kWc),
                       ::testing::Values(0.1, 0.3)),
    [](const auto& info) {
      return std::string(session::scheme_name(std::get<0>(info.param))) +
             "_loss" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(Simulation, LossZeroMeansNoLostTransfers) {
  const SimResult res = run_simulation(session::Scheme::kWc, small_config());
  EXPECT_EQ(res.traffic.lost, 0u);
}

class ChurnInjection : public ::testing::TestWithParam<session::Scheme> {};

TEST_P(ChurnInjection, ReplacedNodesCatchUp) {
  // Nodes crash and restart blank mid-dissemination; as long as the source
  // keeps injecting, every replacement must still complete and verify.
  SimConfig cfg = small_config();
  cfg.churn_rate = 0.05;  // one crash every ~20 rounds
  cfg.max_rounds = 60000;
  const SimResult res = run_simulation(GetParam(), cfg);
  EXPECT_TRUE(res.all_complete) << session::scheme_name(GetParam());
  EXPECT_TRUE(res.payloads_verified);
  EXPECT_GT(res.nodes_churned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ChurnInjection,
                         ::testing::Values(session::Scheme::kLtnc,
                                           session::Scheme::kRlnc,
                                           session::Scheme::kWc),
                         [](const auto& info) {
                           return session::scheme_name(info.param);
                         });

TEST(Simulation, ChurnZeroMeansNoReplacements) {
  const SimResult res = run_simulation(session::Scheme::kLtnc, small_config());
  EXPECT_EQ(res.nodes_churned, 0u);
}

TEST(Simulation, WirelessOverhearingSpeedsConvergence) {
  // §VI: the broadcast medium lets bystanders snoop transfers for free —
  // convergence must improve markedly over wired unicast.
  SimConfig wired = small_config();
  const SimResult unicast = run_simulation(session::Scheme::kLtnc, wired);
  SimConfig wireless = small_config();
  wireless.overhear_count = 3;
  const SimResult snooped = run_simulation(session::Scheme::kLtnc, wireless);
  ASSERT_TRUE(unicast.all_complete);
  ASSERT_TRUE(snooped.all_complete);
  EXPECT_GT(snooped.overheard_useful, 0u);
  EXPECT_LT(snooped.mean_completion(), 0.8 * unicast.mean_completion());
  EXPECT_TRUE(snooped.payloads_verified);
}

TEST(Simulation, OverhearZeroMeansNoSnooping) {
  const SimResult res = run_simulation(session::Scheme::kLtnc, small_config());
  EXPECT_EQ(res.overheard_useful, 0u);
}

TEST(Simulation, ChaosEverythingAtOnce) {
  // Kitchen-sink robustness: smart feedback + 20 % loss + churn + partial
  // gossip views + wireless overhearing, all simultaneously. The protocol
  // must still deliver byte-exact content to every (surviving) node.
  SimConfig cfg = small_config();
  cfg.feedback = session::FeedbackMode::kSmart;
  cfg.loss_rate = 0.2;
  cfg.churn_rate = 0.02;
  cfg.overhear_count = 2;
  cfg.sampler.kind = net::PeerSamplerConfig::Kind::kGossipView;
  cfg.sampler.view_size = 6;
  cfg.max_rounds = 80000;
  const SimResult res = run_simulation(session::Scheme::kLtnc, cfg);
  EXPECT_TRUE(res.all_complete);
  EXPECT_TRUE(res.payloads_verified);
  EXPECT_GT(res.traffic.lost, 0u);
}

TEST(Simulation, TrafficAccountingIsExact) {
  SimConfig cfg = small_config();
  cfg.loss_rate = 0.1;
  for (const session::Scheme scheme :
       {session::Scheme::kLtnc, session::Scheme::kRlnc, session::Scheme::kWc}) {
    const SimResult res = run_simulation(scheme, cfg);
    const auto& t = res.traffic;
    // Every attempt ends exactly one way.
    EXPECT_EQ(t.attempts, t.aborted + t.lost + t.payload_transfers)
        << session::scheme_name(scheme);
    // Headers are paid on every attempt, payloads only on transfers. The
    // header is now a measured frame prefix whose size varies per packet
    // (adaptive code-vector encoding), so bound it instead: never smaller
    // than the minimal frame scaffolding, never larger than the framed
    // dense bitmap.
    const std::uint64_t min_header = 3 + 1 + 1;  // ver/type/flags + varints
    const std::uint64_t max_header = min_header + 2 + 2 + (cfg.k + 7) / 8;
    EXPECT_GE(t.header_bytes, t.attempts * min_header)
        << session::scheme_name(scheme);
    EXPECT_LE(t.header_bytes, t.attempts * max_header)
        << session::scheme_name(scheme);
    EXPECT_EQ(t.payload_bytes, t.payload_transfers * cfg.payload_bytes)
        << session::scheme_name(scheme);
    // Binary feedback: every abort crossed back as a measured frame.
    if (t.aborted > 0) {
      EXPECT_GT(t.control_bytes, 0u) << session::scheme_name(scheme);
    }
    EXPECT_EQ(t.wire_bytes_total(), t.header_bytes + t.payload_bytes +
                                        t.feedback_bytes + t.control_bytes);
    // Receptions recorded per node must sum to the transfers.
    std::uint64_t receptions = 0;
    for (std::uint64_t r : res.payload_receptions) receptions += r;
    EXPECT_EQ(receptions, t.payload_transfers) << session::scheme_name(scheme);
  }
}

TEST(Simulation, InvalidConfigThrows) {
  SimConfig cfg = small_config();
  cfg.num_nodes = 1;
  EXPECT_THROW(EpidemicSimulation(session::Scheme::kLtnc, cfg),
               std::logic_error);
}

}  // namespace
}  // namespace ltnc::dissem
