// WordArena lease/recycle invariants: blocks are zero-filled on lease even
// after a dirty release, outstanding leases never alias, freed blocks are
// recycled rather than re-allocated, blocks align to their size class,
// blocks outlive the thread that leased them, the slab footprint stays
// flat over worker lifetimes, ASan still catches overruns and reads after
// release, and WordBuf value semantics hold.
#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace ltnc {
namespace {

TEST(WordArena, LeaseIsZeroFilledEvenAfterDirtyRelease) {
  WordArena arena;
  const std::size_t words = 33;
  std::uint64_t* p = arena.lease(words);
  ASSERT_NE(p, nullptr);
  for (std::size_t i = 0; i < words; ++i) EXPECT_EQ(p[i], 0u);
  // Dirty the block, release it, lease the same class again: the arena
  // must hand the block back (recycled) and it must be zeroed again.
  for (std::size_t i = 0; i < words; ++i) p[i] = ~0ULL;
  arena.release(p, words);
  std::uint64_t* q = arena.lease(words);
  EXPECT_EQ(q, p) << "same-class lease should recycle the freed block";
  for (std::size_t i = 0; i < words; ++i) EXPECT_EQ(q[i], 0u);
  arena.release(q, words);
}

TEST(WordArena, OutstandingLeasesNeverAlias) {
  WordArena arena;
  const std::size_t words = 16;
  std::vector<std::uint64_t*> leases;
  std::set<std::uint64_t*> distinct;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t* p = arena.lease(words);
    // Stamp the whole block with a lease-unique value.
    for (std::size_t w = 0; w < words; ++w) p[w] = 0x1000u + i;
    leases.push_back(p);
    distinct.insert(p);
  }
  EXPECT_EQ(distinct.size(), leases.size());
  // No stamp was clobbered by a later lease.
  for (std::size_t i = 0; i < leases.size(); ++i) {
    for (std::size_t w = 0; w < words; ++w) {
      EXPECT_EQ(leases[i][w], 0x1000u + i);
    }
  }
  for (std::uint64_t* p : leases) arena.release(p, words);
}

TEST(WordArena, RecyclingServesLeasesWithoutFreshBlocks) {
  WordArena arena;
  // Warm the free list, then verify a burst of lease/release cycles is
  // served entirely from recycling.
  for (int i = 0; i < 4; ++i) arena.release(arena.lease(100), 100);
  const std::uint64_t fresh_before = arena.stats().fresh_blocks;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t* p = arena.lease(100);
    arena.release(p, 100);
  }
  EXPECT_EQ(arena.stats().fresh_blocks, fresh_before);
  EXPECT_GE(arena.stats().recycled_blocks, 1000u);
}

TEST(WordArena, SizeClassesShareBlocks) {
  WordArena arena;
  // 65..128 words round to the same power-of-two class.
  std::uint64_t* p = arena.lease(65);
  arena.release(p, 65);
  std::uint64_t* q = arena.lease(128);
  EXPECT_EQ(q, p);
  arena.release(q, 128);
}

TEST(WordArena, ZeroWordLeaseIsNull) {
  WordArena arena;
  EXPECT_EQ(arena.lease(0), nullptr);
  arena.release(nullptr, 0);  // must be a no-op
  EXPECT_EQ(arena.stats().leases, 0u);
}

TEST(WordArena, StatsTrackLiveWords) {
  WordArena arena;
  std::uint64_t* a = arena.lease(10);
  std::uint64_t* b = arena.lease(20);
  EXPECT_EQ(arena.stats().live_words, 30u);
  arena.release(a, 10);
  EXPECT_EQ(arena.stats().live_words, 20u);
  arena.release(b, 20);
  EXPECT_EQ(arena.stats().live_words, 0u);
}

TEST(WordArena, BlocksAlignToTheirSizeClassUpToACacheLine) {
  WordArena arena;
  for (std::size_t words : {1, 2, 3, 4, 5, 8, 33, 100}) {
    std::vector<std::uint64_t*> leases;
    for (int i = 0; i < 9; ++i) leases.push_back(arena.lease(words));
    const std::size_t class_bytes = std::bit_ceil(words) * 8;
    const std::size_t align = std::min<std::size_t>(class_bytes, 64);
    for (std::uint64_t* p : leases) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << words << " words";
      arena.release(p, words);
    }
  }
}

TEST(WordArena, BlockOutlivesTheWorkerThatLeasedIt) {
  WordBuf moved;
  std::thread worker([&] {
    {
      WordBuf buf(33);
      for (std::size_t i = 0; i < 33; ++i) buf[i] = i + 1;
      moved = std::move(buf);
    }
    WordArena::reclaim_local();
  });
  worker.join();
  // The worker's arena is gone; the block it leased is still good here.
  ASSERT_EQ(moved.size(), 33u);
  for (std::size_t i = 0; i < 33; ++i) EXPECT_EQ(moved[i], i + 1);
  for (std::size_t i = 0; i < 33; ++i) moved[i] = ~i;
  for (std::size_t i = 0; i < 33; ++i) EXPECT_EQ(moved[i], ~i);
  const std::uint64_t* block = moved.data();
  moved = WordBuf();  // released into the main thread's arena
  WordBuf again(33);
  EXPECT_EQ(again.data(), block) << "the released block should be reused";
  for (std::size_t i = 0; i < 33; ++i) EXPECT_EQ(again[i], 0u);
}

TEST(WordArena, WorkerLifetimesReuseRetiredBlocks) {
  // Each short-lived worker leases and releases 1,000 blocks of two size
  // classes and reclaims its arena. Later workers take the blocks earlier
  // ones handed over, so the slab footprint stays flat.
  constexpr std::size_t kBlocks = 1000;
  constexpr std::size_t kSmall = 3;   // 4-word class
  constexpr std::size_t kLarge = 70;  // 128-word class
  auto lifetime = [] {
    std::thread worker([] {
      WordArena& arena = WordArena::local();
      std::vector<std::uint64_t*> small;
      std::vector<std::uint64_t*> large;
      for (std::size_t i = 0; i < kBlocks; ++i) {
        small.push_back(arena.lease(kSmall));
        large.push_back(arena.lease(kLarge));
        small.back()[kSmall - 1] = i;
        large.back()[kLarge - 1] = i;
      }
      for (std::uint64_t* p : small) arena.release(p, kSmall);
      for (std::uint64_t* p : large) arena.release(p, kLarge);
      WordArena::reclaim_local();
    });
    worker.join();
  };
  lifetime();
  const std::size_t after_first = WordArena::slab_footprint_bytes();
  for (int i = 1; i < 50; ++i) lifetime();
  EXPECT_LE(WordArena::slab_footprint_bytes(),
            after_first + 2 * WordArena::kSlabBytes);
}

#if defined(__SANITIZE_ADDRESS__)
// Blocks carved side by side have no redzones between them; the arena's
// own poisoning must still catch what a per-block heap allocation did.
TEST(WordArenaDeathTest, WritePastALeaseIsUseAfterPoison) {
  WordArena arena;
  std::uint64_t* p = arena.lease(33);  // a 64-word class block
  volatile std::uint64_t* v = p;
  EXPECT_DEATH(v[33] = 1, "use-after-poison");
  arena.release(p, 33);
}

TEST(WordArenaDeathTest, ReadAfterReleaseIsUseAfterPoison) {
  WordArena arena;
  std::uint64_t* p = arena.lease(8);
  arena.release(p, 8);
  volatile std::uint64_t* v = p;
  EXPECT_DEATH(static_cast<void>(v[0]), "use-after-poison");
}
#endif

TEST(WordBuf, ValueSemantics) {
  WordBuf a(8);
  for (std::size_t i = 0; i < 8; ++i) a[i] = i + 1;

  WordBuf copy = a;
  EXPECT_EQ(copy, a);
  copy[0] = 99;
  EXPECT_NE(copy, a) << "copies must not share storage";
  EXPECT_EQ(a[0], 1u);

  WordBuf moved = std::move(copy);
  EXPECT_EQ(moved.size(), 8u);
  EXPECT_EQ(moved[0], 99u);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT: moved-from is empty by contract

  WordBuf assigned;
  assigned = a;
  EXPECT_EQ(assigned, a);
  assigned = WordBuf(3);
  EXPECT_EQ(assigned.size(), 3u);
  EXPECT_EQ(assigned[0], 0u);
}

TEST(WordBuf, ZeroFilledOnConstruction) {
  // Dirty the thread-local arena's free list first so a recycled block is
  // exercised, not just a fresh one.
  {
    WordBuf dirty(16);
    for (std::size_t i = 0; i < 16; ++i) dirty[i] = ~0ULL;
  }
  WordBuf b(16);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(b[i], 0u);
}

}  // namespace
}  // namespace ltnc
