// Cross-scheme integration properties — the qualitative claims of §IV at
// small scale: LTNC decodes ~99 % cheaper than RLNC, converges slower than
// RLNC but much faster than WC, and pays a bounded communication overhead
// that the other schemes do not.
#include <gtest/gtest.h>

#include "dissemination/simulation.hpp"
#include "metrics/experiment.hpp"

namespace ltnc::dissem {
namespace {

SimConfig config(std::size_t nodes, std::size_t k) {
  SimConfig cfg;
  cfg.num_nodes = nodes;
  cfg.k = k;
  cfg.payload_bytes = 32;
  cfg.seed = 11;
  cfg.max_rounds = 60000;
  cfg.source_pushes_per_round = 2;
  return cfg;
}

struct ThreeWay {
  SimResult ltnc, rlnc, wc;
};

ThreeWay run_three(std::size_t nodes, std::size_t k) {
  const SimConfig cfg = config(nodes, k);
  return ThreeWay{run_simulation(session::Scheme::kLtnc, cfg),
                  run_simulation(session::Scheme::kRlnc, cfg),
                  run_simulation(session::Scheme::kWc, cfg)};
}

class ThreeSchemeComparison : public ::testing::Test {
 protected:
  static const ThreeWay& results() {
    static const ThreeWay r = run_three(32, 96);
    return r;
  }
};

TEST_F(ThreeSchemeComparison, AllConvergeAndVerify) {
  for (const SimResult* r :
       {&results().ltnc, &results().rlnc, &results().wc}) {
    EXPECT_TRUE(r->all_complete) << session::scheme_name(r->scheme);
    EXPECT_TRUE(r->payloads_verified) << session::scheme_name(r->scheme);
  }
}

TEST_F(ThreeSchemeComparison, DecodeCostOrderingMatchesPaper) {
  // Fig. 8b: RLNC's Gaussian reduction dwarfs LTNC's belief propagation.
  const double ltnc_decode = static_cast<double>(
      results().ltnc.decode_ops.control_total());
  const double rlnc_decode = static_cast<double>(
      results().rlnc.decode_ops.control_total());
  EXPECT_LT(ltnc_decode, rlnc_decode * 0.5)
      << "LTNC should decode far cheaper than RLNC even at k = 96";
}

TEST_F(ThreeSchemeComparison, ConvergenceOrderingMatchesPaper) {
  // Fig. 7a/7b: RLNC ≤ LTNC < WC in completion time.
  const double t_ltnc = results().ltnc.mean_completion();
  const double t_rlnc = results().rlnc.mean_completion();
  const double t_wc = results().wc.mean_completion();
  EXPECT_LE(t_rlnc, t_ltnc * 1.10);  // RLNC is optimal (small tolerance)
  EXPECT_LT(t_ltnc, t_wc);           // coding beats no coding
}

TEST_F(ThreeSchemeComparison, OverheadOnlyForLtnc) {
  EXPECT_GT(results().ltnc.overhead(), 0.0);
  EXPECT_NEAR(results().rlnc.overhead(), 0.0, 1e-12);
  EXPECT_NEAR(results().wc.overhead(), 0.0, 1e-12);
}

TEST_F(ThreeSchemeComparison, LtncInTextStatisticsInRange) {
  const auto& r = results().ltnc;
  // §III-B.1: the first picked degree is accepted nearly always.
  EXPECT_GT(r.ltnc_degree_stats.first_accept_rate(), 0.9);
  // §III-B.2: the builder reaches the target degree most of the time.
  EXPECT_GT(r.ltnc_build_stats.target_rate(), 0.7);
  // §III-C.1: the detector fires — through the binary feedback channel it
  // aborts transfers before delivery, so its hits surface as aborts.
  EXPECT_GT(r.ltnc_redundancy_hits, 0u);
  EXPECT_GT(r.traffic.aborted, 0u);
}

TEST(Integration, RefinementBalancesOccurrences) {
  // §III-B.3: refinement substitutes over-represented natives, so the
  // relative spread of occurrence counts must shrink versus the ablation.
  SimConfig cfg = config(24, 64);
  const SimResult with = run_simulation(session::Scheme::kLtnc, cfg);
  cfg.ltnc.enable_refinement = false;
  const SimResult without = run_simulation(session::Scheme::kLtnc, cfg);
  ASSERT_TRUE(with.all_complete);
  ASSERT_TRUE(without.all_complete);
  EXPECT_LT(with.ltnc_occurrence_rel_stddev,
            without.ltnc_occurrence_rel_stddev);
}

TEST(Integration, RedundancyDetectionReducesWaste) {
  // Ablation (paper: −31 % redundant insertions): with the detector off,
  // more useless payloads cross the wire.
  SimConfig cfg = config(24, 64);
  const SimResult with = run_simulation(session::Scheme::kLtnc, cfg);
  cfg.ltnc.enable_redundancy_detection = false;
  const SimResult without = run_simulation(session::Scheme::kLtnc, cfg);
  ASSERT_TRUE(with.all_complete);
  ASSERT_TRUE(without.all_complete);
  EXPECT_LT(with.overhead(), without.overhead());
}

TEST(Integration, DecodeCostGapWidensWithK) {
  // The paper's headline (−99 % at k = 2048) rests on the gap growing with
  // k: verify the trend between k = 48 and k = 144.
  auto gap = [](std::size_t k) {
    const SimConfig cfg = config(16, k);
    const SimResult ltnc = run_simulation(session::Scheme::kLtnc, cfg);
    const SimResult rlnc = run_simulation(session::Scheme::kRlnc, cfg);
    return static_cast<double>(rlnc.decode_ops.control_total()) /
           static_cast<double>(ltnc.decode_ops.control_total());
  };
  const double gap_small = gap(48);
  const double gap_large = gap(144);
  EXPECT_GT(gap_large, gap_small);
}

}  // namespace
}  // namespace ltnc::dissem
