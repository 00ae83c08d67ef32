#include "dissemination/event_engine.hpp"

#include <gtest/gtest.h>

#include "dissemination/simulation.hpp"

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

// The compat contract: the event engine must reproduce the lockstep
// trajectory *byte for byte* — same RNG draws in the same order, so every
// counter, every per-node series and every measured wire byte agree.
void expect_identical(const SimResult& lock, const SimResult& event) {
  EXPECT_EQ(lock.rounds_run, event.rounds_run);
  EXPECT_EQ(lock.nodes_complete, event.nodes_complete);
  EXPECT_EQ(lock.nodes_churned, event.nodes_churned);
  EXPECT_EQ(lock.all_complete, event.all_complete);
  EXPECT_EQ(lock.payloads_verified, event.payloads_verified);
  EXPECT_EQ(lock.completion_round, event.completion_round);
  EXPECT_EQ(lock.convergence_trace, event.convergence_trace);
  EXPECT_EQ(lock.payload_receptions, event.payload_receptions);

  EXPECT_EQ(lock.traffic.attempts, event.traffic.attempts);
  EXPECT_EQ(lock.traffic.aborted, event.traffic.aborted);
  EXPECT_EQ(lock.traffic.lost, event.traffic.lost);
  EXPECT_EQ(lock.traffic.payload_transfers, event.traffic.payload_transfers);
  EXPECT_EQ(lock.traffic.header_bytes, event.traffic.header_bytes);
  EXPECT_EQ(lock.traffic.payload_bytes, event.traffic.payload_bytes);
  EXPECT_EQ(lock.traffic.feedback_bytes, event.traffic.feedback_bytes);
  EXPECT_EQ(lock.traffic.control_bytes, event.traffic.control_bytes);

  ASSERT_EQ(lock.per_content.size(), event.per_content.size());
  for (std::size_t c = 0; c < lock.per_content.size(); ++c) {
    EXPECT_EQ(lock.per_content[c].wire_bytes_total(),
              event.per_content[c].wire_bytes_total());
  }

  EXPECT_EQ(lock.sessions.offers, event.sessions.offers);
  EXPECT_EQ(lock.sessions.data_delivered, event.sessions.data_delivered);
  EXPECT_EQ(lock.sessions.aborts_sent, event.sessions.aborts_sent);
  EXPECT_EQ(lock.sessions.overheard, event.sessions.overheard);
  EXPECT_EQ(lock.overheard_useful, event.overheard_useful);

  EXPECT_EQ(lock.decode_ops.data_word_ops, event.decode_ops.data_word_ops);
  EXPECT_EQ(lock.recode_ops.data_word_ops, event.recode_ops.data_word_ops);
  EXPECT_EQ(lock.decode_ops.invocations, event.decode_ops.invocations);
  EXPECT_EQ(lock.ltnc_stats.receives, event.ltnc_stats.receives);
  EXPECT_EQ(lock.ltnc_stats.recodes, event.ltnc_stats.recodes);
  EXPECT_EQ(lock.ltnc_redundancy_checks, event.ltnc_redundancy_checks);
}

// --- compat mode: lockstep equivalence across the config space -------------

TEST(EventEngineCompat, MatchesLockstepBinaryFeedback) {
  const SimConfig cfg = small_config();
  expect_identical(run_simulation(session::Scheme::kLtnc, cfg),
                   run_event_simulation(session::Scheme::kLtnc, cfg,
                                        EngineMode::kCompat));
}

TEST(EventEngineCompat, MatchesLockstepSmartFeedbackLossOverhear) {
  SimConfig cfg = small_config();
  cfg.feedback = session::FeedbackMode::kSmart;
  cfg.loss_rate = 0.1;
  cfg.overhear_count = 2;
  expect_identical(run_simulation(session::Scheme::kLtnc, cfg),
                   run_event_simulation(session::Scheme::kLtnc, cfg,
                                        EngineMode::kCompat));
}

TEST(EventEngineCompat, MatchesLockstepNoFeedbackWithChurn) {
  SimConfig cfg = small_config();
  cfg.feedback = session::FeedbackMode::kNone;
  cfg.churn_rate = 0.2;
  cfg.loss_rate = 0.05;
  expect_identical(run_simulation(session::Scheme::kLtnc, cfg),
                   run_event_simulation(session::Scheme::kLtnc, cfg,
                                        EngineMode::kCompat));
}

TEST(EventEngineCompat, MatchesLockstepMultiContent) {
  SimConfig cfg = small_config();
  cfg.num_contents = 2;
  expect_identical(run_simulation(session::Scheme::kLtnc, cfg),
                   run_event_simulation(session::Scheme::kLtnc, cfg,
                                        EngineMode::kCompat));
}

TEST(EventEngineCompat, MatchesLockstepOtherSchemes) {
  const SimConfig cfg = small_config();
  for (const session::Scheme scheme :
       {session::Scheme::kRlnc, session::Scheme::kWc}) {
    expect_identical(run_simulation(scheme, cfg),
                     run_event_simulation(scheme, cfg, EngineMode::kCompat));
  }
}

TEST(EventEngineCompat, MatchesLockstepMultiplePushesPerRound) {
  SimConfig cfg = small_config();
  cfg.node_pushes_per_round = 3;
  expect_identical(run_simulation(session::Scheme::kLtnc, cfg),
                   run_event_simulation(session::Scheme::kLtnc, cfg,
                                        EngineMode::kCompat));
}

// --- scale mode: the large-n engine ----------------------------------------

TEST(EventEngineScale, CompletesAndVerifies) {
  const SimConfig cfg = small_config(200, 16);
  const SimResult res =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_TRUE(res.all_complete);
  EXPECT_TRUE(res.payloads_verified);
  EXPECT_EQ(res.convergence_trace.size(), res.rounds_run);
  EXPECT_DOUBLE_EQ(res.convergence_trace.back(), 1.0);
}

TEST(EventEngineScale, DeterministicForSeed) {
  const SimConfig cfg = small_config(96, 16);
  const SimResult a =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  const SimResult b =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_EQ(a.rounds_run, b.rounds_run);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.traffic.wire_bytes_total(), b.traffic.wire_bytes_total());
  EXPECT_EQ(a.traffic.attempts, b.traffic.attempts);
}

TEST(EventEngineScale, ChurnFlowsThroughTheWheel) {
  // One crash every ~20 rounds, as in ChurnInjection.ReplacedNodesCatchUp.
  // At a rate like 0.3 a node restarts blank every ~3 rounds, the whole
  // fleet is rarely complete at one moment, and completion would depend
  // on the seed.
  SimConfig cfg = small_config(64, 16);
  cfg.churn_rate = 0.05;
  const SimResult res =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_TRUE(res.all_complete);
  EXPECT_TRUE(res.payloads_verified);

  // Whether that run churns at all depends on the draw. At churn_rate 1
  // every round's coin flip succeeds, so each round churns exactly one
  // node whatever the seed.
  cfg.churn_rate = 1.0;
  cfg.stop_when_complete = false;
  cfg.max_rounds = 20;
  const SimResult every_round =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_EQ(every_round.rounds_run, 20u);
  EXPECT_EQ(every_round.nodes_churned, every_round.rounds_run);
}

TEST(EventEngineScale, OverhearsFlowThroughTheWheel) {
  SimConfig cfg = small_config(64, 16);
  cfg.overhear_count = 2;
  const SimResult res =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_TRUE(res.all_complete);
  EXPECT_GT(res.overheard_useful, 0u);
}

TEST(EventEngineScale, FlyweightFleetStaysSparse) {
  // Three rounds of a 5000-node swarm contact at most
  // rounds · source_pushes targets (plus nothing else: blank nodes cannot
  // push at 1 % aggressiveness with k = 32). The other ~4990 nodes must
  // never materialize.
  SimConfig cfg = small_config(5000, 32);
  cfg.max_rounds = 3;
  EventSimulation sim(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_EQ(sim.core().materialized_count(), 0u);
  SimResult res = sim.run();
  // Contacted set grows like the epidemic front (sources + one hop per
  // armed node per round), nowhere near n: ≤ 2+2, +2+6, +2+12 over the
  // three rounds.
  EXPECT_LE(sim.core().materialized_count(), 32u);
  EXPECT_EQ(res.completion_round.size(), 5000u);
  // Event count follows the active set, not n: ~4 phase events per round
  // plus one push event per armed node per round.
  EXPECT_LT(sim.events_processed(), 64u);
}

TEST(EventEngineScale, ArmsNodesOnlyOncePastTheGate) {
  SimConfig cfg = small_config(128, 32);
  cfg.max_rounds = 5;
  EventSimulation sim(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_EQ(sim.armed_pushes(), 0u);  // 1 % of 32 ⇒ blank nodes gated
  sim.run();
  // Every armed node must have materialized first (a payload arrived).
  EXPECT_LE(sim.armed_pushes(), sim.core().materialized_count());
}

TEST(EventEngineScale, StepAdvancesOneRound) {
  const SimConfig cfg = small_config(48, 16);
  EventSimulation sim(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_EQ(sim.round(), 0u);
  sim.step();
  EXPECT_EQ(sim.round(), 1u);
  sim.step();
  EXPECT_EQ(sim.round(), 2u);
}

TEST(EventEngineScale, ScaleTracksLockstepStatistically) {
  // Different draw sequences, same protocol: completion times should land
  // in the same ballpark (well within 2× of each other).
  const SimConfig cfg = small_config(96, 16);
  const SimResult lock = run_simulation(session::Scheme::kLtnc, cfg);
  const SimResult scale =
      run_event_simulation(session::Scheme::kLtnc, cfg, EngineMode::kScale);
  EXPECT_TRUE(scale.all_complete);
  EXPECT_GT(scale.mean_completion(), 0.5 * lock.mean_completion());
  EXPECT_LT(scale.mean_completion(), 2.0 * lock.mean_completion());
}

}  // namespace
}  // namespace ltnc::dissem
