// The session-layer acceptance criterion, pinned: refactoring the
// protocol state machine out of EpidemicSimulation into session::Endpoint
// changed who runs the conversation, not what goes on the wire. For a
// fixed seed and config the harness must reproduce the pre-session
// implementation's TrafficStats **byte for byte** — every counter below
// was captured from the simulator as it stood before src/session existed
// (PR 3 head), across all three schemes, all three feedback modes, loss,
// churn and wireless overhearing.
//
// If an intentional wire-format or ledger change ever breaks these
// numbers, recapture them and say so loudly in the commit: they are the
// proof that simulator results (Fig. 7 traces, overhead tables) remain
// comparable across the refactor.
//
// The five LTNC rows were recaptured once, when the Robust Soliton
// sampler became the fixed-point LUT alone (one 64-bit draw per degree
// where Walker's alias table took two): the LT source and every LTNC
// recoder now draw a different degree sequence from the same
// distribution. Over seeds 1-200 of the ltnc_binary config the mean
// rounds_run moved from 106.7 to 108.1 (standard deviation about 10), so
// seed 7's move from 90 to 107 rounds is a different draw, not a change
// of behaviour. The RLNC and WC rows draw no degrees and did not move.
#include <gtest/gtest.h>

#include "dissemination/simulation.hpp"

namespace ltnc::dissem {
namespace {

struct GoldenCase {
  const char* name;
  session::Scheme scheme;
  session::FeedbackMode feedback;
  double loss;
  std::size_t overhear;
  double churn;
  // Captured outputs.
  std::size_t rounds_run;
  std::uint64_t attempts, aborted, lost, payload_transfers;
  std::uint64_t header_bytes, payload_bytes, feedback_bytes, control_bytes;
  std::uint64_t overheard_useful;
  bool all_complete, payloads_verified;
};

// Captured with: N=24, k=32, m=16, seed=7, max_rounds=60000,
// source_pushes_per_round=2 (the suite's small_config shape).
const GoldenCase kGolden[] = {
    {"ltnc_binary", session::Scheme::kLtnc,
     session::FeedbackMode::kBinary, 0.00, 0, 0.00,
     107, 2729, 1044, 0, 1685, 23370, 26960, 0, 5214, 0, true, true},
    {"rlnc_binary", session::Scheme::kRlnc,
     session::FeedbackMode::kBinary, 0.00, 0, 0.00,
     51, 1279, 511, 0, 768, 11511, 12288, 0, 2533, 0, true, true},
    {"wc_binary", session::Scheme::kWc,
     session::FeedbackMode::kBinary, 0.00, 0, 0.00,
     225, 5797, 5029, 0, 768, 40579, 12288, 0, 25113, 0, true, true},
    {"ltnc_none", session::Scheme::kLtnc,
     session::FeedbackMode::kNone, 0.00, 0, 0.00,
     107, 2729, 0, 0, 2729, 23370, 43664, 0, 0, 0, true, true},
    {"ltnc_smart", session::Scheme::kLtnc,
     session::FeedbackMode::kSmart, 0.00, 0, 0.00,
     76, 1921, 844, 0, 1077, 16154, 17232, 63684, 4197, 0, true, true},
    {"rlnc_smart", session::Scheme::kRlnc,
     session::FeedbackMode::kSmart, 0.00, 0, 0.00,
     51, 1279, 511, 0, 768, 11511, 12288, 0, 2533, 0, true, true},
    {"ltnc_binary_loss", session::Scheme::kLtnc,
     session::FeedbackMode::kBinary, 0.15, 0, 0.00,
     102, 2614, 866, 257, 1491, 22237, 23856, 0, 4287, 0, true, true},
    {"ltnc_smart_chaos", session::Scheme::kLtnc,
     session::FeedbackMode::kSmart, 0.20, 2, 0.02,
     50, 1274, 483, 139, 652, 10708, 10432, 42264, 2383, 909, true, true},
    {"wc_none_loss", session::Scheme::kWc,
     session::FeedbackMode::kNone, 0.10, 0, 0.00,
     231, 5951, 0, 609, 5342, 41657, 85472, 0, 0, 0, true, true},
    // High-loss binary-feedback runs leave advertised-but-undelivered
    // conversations dangling and re-advertise identical vectors (WC's
    // round-robin especially) — the configs that pin the endpoint's
    // replay handling to the original veto semantics.
    {"wc_binary_loss", session::Scheme::kWc,
     session::FeedbackMode::kBinary, 0.30, 0, 0.00,
     282, 7211, 6128, 315, 768, 50477, 12288, 0, 30610, 0, true, true},
    {"rlnc_binary_loss", session::Scheme::kRlnc,
     session::FeedbackMode::kBinary, 0.30, 0, 0.00,
     63, 1574, 490, 316, 768, 14166, 12288, 0, 2427, 0, true, true},
    {"wc_binary_loss_churn", session::Scheme::kWc,
     session::FeedbackMode::kBinary, 0.20, 1, 0.03,
     1696, 44024, 41650, 496, 1878, 308168, 30048, 0, 234849, 292, true,
     true},
};

class SessionEquivalence : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SessionEquivalence, ReproducesPreSessionTrafficExactly) {
  const GoldenCase& g = GetParam();
  SimConfig cfg;
  cfg.num_nodes = 24;
  cfg.k = 32;
  cfg.payload_bytes = 16;
  cfg.seed = 7;
  cfg.max_rounds = 60000;
  cfg.source_pushes_per_round = 2;
  cfg.feedback = g.feedback;
  cfg.loss_rate = g.loss;
  cfg.overhear_count = g.overhear;
  cfg.churn_rate = g.churn;

  const SimResult res = run_simulation(g.scheme, cfg);

  EXPECT_EQ(res.rounds_run, g.rounds_run);
  EXPECT_EQ(res.traffic.attempts, g.attempts);
  EXPECT_EQ(res.traffic.aborted, g.aborted);
  EXPECT_EQ(res.traffic.lost, g.lost);
  EXPECT_EQ(res.traffic.payload_transfers, g.payload_transfers);
  EXPECT_EQ(res.traffic.header_bytes, g.header_bytes);
  EXPECT_EQ(res.traffic.payload_bytes, g.payload_bytes);
  EXPECT_EQ(res.traffic.feedback_bytes, g.feedback_bytes);
  EXPECT_EQ(res.traffic.control_bytes, g.control_bytes);
  EXPECT_EQ(res.overheard_useful, g.overheard_useful);
  EXPECT_EQ(res.all_complete, g.all_complete);
  EXPECT_EQ(res.payloads_verified, g.payloads_verified);

  // Cross-check the ledger against the endpoints' own session counters:
  // every attempt advertised (or shipped data directly), every abort the
  // ledger charged was a veto some endpoint sent. (Skipped under churn:
  // a replaced node's endpoint takes its counters with it.)
  if (g.churn == 0.0) {
    if (g.feedback != session::FeedbackMode::kNone) {
      EXPECT_EQ(res.sessions.aborts_sent, g.aborted);
      EXPECT_EQ(res.sessions.advertises_received, g.attempts);
    }
    EXPECT_EQ(res.sessions.data_delivered,
              g.payload_transfers + res.sessions.unsolicited_data);
  }
}

INSTANTIATE_TEST_SUITE_P(Golden, SessionEquivalence,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ltnc::dissem
