// DeadlinePolicy: earliest-deadline-first push ordering layered over the
// swarm scheduler's rarest-first/round-robin discipline.
//
// Covers the satellite checklist: EDF overrides rarest-first, rarest
// breaks ties within one deadline, full ties rotate round-robin, budget
// exhaustion keeps far-deadline blocks from starving, overdue blocks are
// never picked, and untracked contents sort last but stay reachable.
#include "stream/deadline_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "store/content_store.hpp"
#include "store/swarm_scheduler.hpp"

namespace ltnc::stream {
namespace {

constexpr std::size_t kK = 4;
constexpr std::size_t kM = 16;

/// A store of LTNC sink contents, ids 1..n, all empty (fill 0).
std::unique_ptr<store::ContentStore> make_store(std::size_t n) {
  auto store = std::make_unique<store::ContentStore>();
  for (std::size_t i = 0; i < n; ++i) {
    store::ContentConfig cfg;
    cfg.id = static_cast<ContentId>(i + 1);
    cfg.k = kK;
    cfg.payload_bytes = kM;
    store->register_content(cfg);
  }
  return store;
}

/// Raises content `index`'s fill_fraction by delivering `n` natives.
void fill(store::ContentStore& store, std::size_t index, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    store.at(index).deliver(
        CodedPacket::native(kK, j, Payload::deterministic(kM, 9, j)));
  }
}

std::vector<std::uint8_t> all_eligible(const store::ContentStore& store) {
  return std::vector<std::uint8_t>(store.size(), 1);
}

TEST(DeadlinePolicy, EdfOverridesRarestFirst) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  fill(store, 0, 3);  // content 1: fill 0.75 but the urgent deadline
  DeadlinePolicy policy;
  policy.track(1, 50, 0);
  policy.track(2, 100, 0);
  policy.set_now(0);
  std::size_t cursor = 0;
  const auto eligible = all_eligible(store);
  // Rarest-first alone would pick index 1 (fill 0); EDF wins.
  EXPECT_EQ(policy.pick(store, eligible, cursor), 0u);
}

TEST(DeadlinePolicy, RarestBreaksTiesWithinOneDeadline) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  fill(store, 0, 3);
  fill(store, 1, 1);
  DeadlinePolicy policy;
  policy.track(1, 50, 0);
  policy.track(2, 50, 0);
  policy.set_now(0);
  std::size_t cursor = 0;
  const auto eligible = all_eligible(store);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
}

TEST(DeadlinePolicy, FullTiesRotateRoundRobin) {
  const auto store_ptr = make_store(3);
  store::ContentStore& store = *store_ptr;
  DeadlinePolicy policy;
  for (ContentId id = 1; id <= 3; ++id) policy.track(id, 50, 0);
  policy.set_now(0);
  std::size_t cursor = 0;
  const auto eligible = all_eligible(store);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 2u);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 0u);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
}

TEST(DeadlinePolicy, BudgetExhaustionUnstarvesFarDeadlines) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  DeadlinePolicy policy;
  policy.track(1, 50, 2);   // urgent, but only two pushes allowed
  policy.track(2, 100, 0);  // far deadline, uncapped
  policy.set_now(0);
  std::size_t cursor = 0;
  const auto eligible = all_eligible(store);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(policy.pick(store, eligible, cursor), 0u);
    policy.on_push(1);
  }
  EXPECT_EQ(policy.budget_left(1), 0u);
  // The far-deadline block is served once the urgent budget is spent —
  // EDF with budgets cannot starve it.
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
}

TEST(DeadlinePolicy, OverdueBlocksAreNeverPicked) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  DeadlinePolicy policy;
  policy.track(1, 50, 0);
  policy.track(2, 100, 0);
  policy.set_now(60);  // content 1 is past its deadline
  std::size_t cursor = 0;
  const auto eligible = all_eligible(store);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
  policy.set_now(200);  // both overdue
  EXPECT_EQ(policy.pick(store, eligible, cursor), store::SwarmScheduler::kNone);
}

TEST(DeadlinePolicy, UntrackedContentsSortLastButStayReachable) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  DeadlinePolicy policy;
  policy.track(1, 50, 1);
  policy.set_now(0);
  std::size_t cursor = 0;
  const auto eligible = all_eligible(store);
  EXPECT_EQ(policy.pick(store, eligible, cursor), 0u);
  policy.on_push(1);
  // Content 2 was never tracked: it has no deadline, so it yields to any
  // tracked block but still absorbs leftover push slots.
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
  EXPECT_FALSE(policy.tracked(2));
}

TEST(DeadlinePolicy, EligibilityMaskIsRespected) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  DeadlinePolicy policy;
  policy.track(1, 50, 0);
  policy.track(2, 100, 0);
  policy.set_now(0);
  std::size_t cursor = 0;
  std::vector<std::uint8_t> eligible{0, 1};  // urgent one masked out
  EXPECT_EQ(policy.pick(store, eligible, cursor), 1u);
  eligible[1] = 0;
  EXPECT_EQ(policy.pick(store, eligible, cursor), store::SwarmScheduler::kNone);
}

TEST(DeadlinePolicy, BudgetAccounting) {
  DeadlinePolicy policy;
  policy.track(7, 100, 3);
  EXPECT_EQ(policy.budget_left(7), 3u);
  policy.on_push(7);
  EXPECT_EQ(policy.budget_left(7), 2u);
  EXPECT_EQ(policy.pushed(7), 1u);
  // set_budget rescales without forgetting what was already pushed.
  policy.set_budget(7, 2);
  EXPECT_EQ(policy.budget_left(7), 1u);
  // Re-tracking the same id is a fresh block (stream ids never recycle,
  // but the policy itself resets cleanly).
  policy.track(7, 200, 5);
  EXPECT_EQ(policy.pushed(7), 0u);
  EXPECT_EQ(policy.budget_left(7), 5u);
  // Budget 0 means uncapped; untracked ids have nothing to spend.
  policy.track(8, 200, 0);
  EXPECT_EQ(policy.budget_left(8), ~std::uint32_t{0});
  EXPECT_EQ(policy.budget_left(99), 0u);
  policy.untrack(7);
  EXPECT_FALSE(policy.tracked(7));
  EXPECT_EQ(policy.tracked_count(), 1u);
}

TEST(DeadlinePolicy, SchedulerDelegatesToInstalledPolicy) {
  const auto store_ptr = make_store(2);
  store::ContentStore& store = *store_ptr;
  fill(store, 1, 3);  // rarest-first would pick index 0
  DeadlinePolicy policy;
  policy.track(2, 10, 0);  // EDF prefers index 1 (the filled one)
  policy.track(1, 99, 0);
  policy.set_now(0);
  store::SwarmScheduler scheduler;
  const auto eligible = all_eligible(store);
  EXPECT_EQ(scheduler.pick(store, eligible), 0u);  // default: rarest
  scheduler.set_policy(&policy);
  EXPECT_EQ(scheduler.pick(store, eligible), 1u);  // policy: EDF
  scheduler.set_policy(nullptr);
  EXPECT_EQ(scheduler.pick(store, eligible), 0u);  // default restored
}

}  // namespace
}  // namespace ltnc::stream
