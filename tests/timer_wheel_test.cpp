// Property tests for the hierarchical timer wheel — the determinism
// contract the event engine leans on: global time ordering, same-tick
// FIFO, and cascade correctness across level and overflow boundaries,
// all checked against a std::multimap reference.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dissemination/timer_wheel.hpp"

namespace ltnc::dissem {
namespace {

TEST(TimerWheel, StartsEmpty) {
  TimerWheel<int> wheel;
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.now(), 0u);
  EXPECT_FALSE(wheel.pop_next().has_value());
}

TEST(TimerWheel, PopsInTimeOrder) {
  TimerWheel<int> wheel;
  wheel.schedule(50, 1);
  wheel.schedule(10, 2);
  wheel.schedule(30, 3);
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(2));
  EXPECT_EQ(wheel.now(), 10u);
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(3));
  EXPECT_EQ(wheel.now(), 30u);
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(1));
  EXPECT_EQ(wheel.now(), 50u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, SameTickFifoOrder) {
  TimerWheel<int> wheel;
  for (int i = 0; i < 100; ++i) wheel.schedule(7, i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(wheel.pop_next(), std::optional<int>(i));
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, SameTickFifoSurvivesCascade) {
  // Events scheduled far enough ahead to live in level 2 must still fire
  // in schedule order after two cascades bring them down to level 0.
  TimerWheel<int> wheel;
  const std::uint64_t far = 64 * 64 * 3 + 17;
  for (int i = 0; i < 20; ++i) wheel.schedule(far, i);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(wheel.pop_next(), std::optional<int>(i)) << "i=" << i;
  }
  EXPECT_EQ(wheel.now(), far);
}

TEST(TimerWheel, FifoInterleavesCascadedAndFreshEntries) {
  // An entry cascaded down from a coarser level and one scheduled
  // directly at level 0 share a slot: seq order (= schedule order) wins.
  TimerWheel<int> wheel;
  wheel.schedule(70, 1);  // level 1 at schedule time
  wheel.schedule(65, 0);  // moves the cursor past the tick-64 cascade
  ASSERT_EQ(wheel.pop_next(), std::optional<int>(0));
  ASSERT_EQ(wheel.now(), 65u);  // 1 now sits in level 0
  wheel.schedule(70, 2);  // lands in the same level-0 slot
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(1));
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(2));
}

TEST(TimerWheel, SchedulingInThePastThrows) {
  TimerWheel<int> wheel;
  wheel.schedule(100, 1);
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(1));
  EXPECT_THROW(wheel.schedule(99, 2), std::logic_error);
  EXPECT_NO_THROW(wheel.schedule(100, 3));  // current tick is fine
}

TEST(TimerWheel, OverflowBucketEventuallyFires) {
  // Beyond the 64^4-tick horizon the entry waits in overflow and must
  // still come back at exactly its time.
  TimerWheel<int> wheel;
  const std::uint64_t kHorizon = std::uint64_t{1} << 24;
  const std::uint64_t far = kHorizon + 12345;
  wheel.schedule(far, 7);
  wheel.schedule(3, 1);
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(1));
  EXPECT_EQ(wheel.pop_next(), std::optional<int>(7));
  EXPECT_EQ(wheel.now(), far);
}

TEST(TimerWheel, RandomizedAgainstMultimapReference) {
  // Mixed schedule/pop workload with deltas spanning every level and the
  // overflow bucket; the wheel must agree with a time-ordered reference
  // (equal times in insertion order) on every pop — payloads, which also
  // nails FIFO, and the cursor, which must rest on the popped time.
  Rng rng(0xfeedULL);
  TimerWheel<std::uint32_t> wheel;
  std::multimap<std::uint64_t, std::uint32_t> reference;

  std::uint32_t next_value = 0;
  for (int op = 0; op < 20000; ++op) {
    if (rng.uniform(10) < 6 || wheel.empty()) {
      // Skewed delta mix: mostly near, some mid, a few horizon-crossing.
      const std::uint32_t kind = rng.uniform(10);
      std::uint64_t delta;
      if (kind < 6) {
        delta = rng.uniform(64);
      } else if (kind < 9) {
        delta = rng.uniform(64 * 64 * 8);
      } else {
        delta = rng.uniform(1u << 25);  // may land past the horizon
      }
      const std::uint64_t time = wheel.now() + delta;
      const std::uint32_t value = next_value++;
      wheel.schedule(time, value);
      reference.emplace(time, value);
    } else {
      const std::optional<std::uint32_t> got = wheel.pop_next();
      ASSERT_TRUE(got.has_value());
      const auto it = reference.begin();
      ASSERT_EQ(*got, it->second) << "time=" << it->first;
      ASSERT_EQ(wheel.now(), it->first);
      reference.erase(it);
    }
    ASSERT_EQ(wheel.size(), reference.size());
  }
  // Drain everything left and confirm full agreement to the end.
  while (!reference.empty()) {
    const std::optional<std::uint32_t> got = wheel.pop_next();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, reference.begin()->second);
    ASSERT_EQ(wheel.now(), reference.begin()->first);
    reference.erase(reference.begin());
  }
  EXPECT_EQ(wheel.pop_next(), std::nullopt);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, MovesOnlyTypesWork) {
  // Event payloads are moved, never copied — unique_ptr must compile.
  TimerWheel<std::unique_ptr<int>> wheel;
  wheel.schedule(5, std::make_unique<int>(42));
  auto got = wheel.pop_next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(**got, 42);
}

}  // namespace
}  // namespace ltnc::dissem
