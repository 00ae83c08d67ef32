#include "core/components.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"

namespace ltnc::core {
namespace {

constexpr std::size_t kM = 16;

struct Fixture {
  std::size_t k;
  std::vector<Payload> natives;
  std::map<NativeIndex, Payload> decoded;
  ComponentTracker tracker;
  OpCounters ops;

  explicit Fixture(std::size_t k_, std::uint64_t seed = 1)
      : k(k_),
        natives(),
        tracker(k_, kM, [this](NativeIndex x) -> const Payload& {
          return decoded.at(x);
        }) {
    for (std::size_t i = 0; i < k; ++i) {
      natives.push_back(Payload::deterministic(kM, seed, i));
    }
  }

  Payload xor_of(NativeIndex a, NativeIndex b) const {
    Payload p = natives[a];
    Payload q = natives[b];
    p.xor_with(q);
    return p;
  }

  void edge(NativeIndex a, NativeIndex b) {
    tracker.add_edge(a, b, xor_of(a, b), ops);
  }

  void decode(NativeIndex x, std::uint64_t occ = 0) {
    decoded.emplace(x, natives[x]);
    tracker.mark_decoded(x, occ);
  }
};

TEST(ComponentTracker, InitiallySingletons) {
  Fixture f(5);
  for (NativeIndex i = 0; i < 5; ++i) {
    EXPECT_NE(f.tracker.cc(i), 0u);
    for (NativeIndex j = 0; j < i; ++j) {
      EXPECT_FALSE(f.tracker.connected(i, j));
    }
  }
}

TEST(ComponentTracker, EdgeConnects) {
  Fixture f(5);
  f.edge(0, 1);
  EXPECT_TRUE(f.tracker.connected(0, 1));
  EXPECT_FALSE(f.tracker.connected(0, 2));
  EXPECT_EQ(f.tracker.cc(0), f.tracker.cc(1));
}

TEST(ComponentTracker, TransitiveConnectivityViaChain) {
  // Paper's example: x3 ∼ x7 because x3 ⊕ x5 and x5 ⊕ x7 are available.
  Fixture f(8);
  f.edge(2, 4);  // x3 ⊕ x5 (0-based)
  f.edge(4, 6);  // x5 ⊕ x7
  EXPECT_TRUE(f.tracker.connected(2, 6));
  // Materialised payload must equal x3 ⊕ x7 even though that exact packet
  // was never received.
  EXPECT_EQ(f.tracker.materialize(2, 6, f.ops), f.xor_of(2, 6));
}

TEST(ComponentTracker, MaterializeEveryPairInComponent) {
  Fixture f(10);
  f.edge(0, 1);
  f.edge(2, 3);
  f.edge(1, 2);  // merges the two pairs
  f.edge(3, 4);
  const std::vector<NativeIndex> comp{0, 1, 2, 3, 4};
  for (NativeIndex a : comp) {
    for (NativeIndex b : comp) {
      if (a == b) continue;
      ASSERT_EQ(f.tracker.materialize(a, b, f.ops), f.xor_of(a, b))
          << "pair " << a << "," << b;
    }
  }
}

TEST(ComponentTracker, RedundantEdgeIsNoOp) {
  Fixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(0, 2);  // already connected
  EXPECT_TRUE(f.tracker.connected(0, 2));
  EXPECT_EQ(f.tracker.materialize(0, 2, f.ops), f.xor_of(0, 2));
}

TEST(ComponentTracker, DecodedComponentMaterialises) {
  Fixture f(6);
  f.decode(1);
  f.decode(4);
  EXPECT_EQ(f.tracker.cc(1), 0u);
  EXPECT_EQ(f.tracker.cc(4), 0u);
  EXPECT_TRUE(f.tracker.connected(1, 4));
  EXPECT_EQ(f.tracker.materialize(1, 4, f.ops), f.xor_of(1, 4));
}

TEST(ComponentTracker, DecodingTheLastMemberFreesTheForest) {
  // Four natives joined by three edges hold three forest payloads, which
  // undecoded members route through until the last of them decodes.
  Fixture f(6);
  f.edge(0, 1);
  f.edge(2, 3);
  f.edge(1, 2);
  for (NativeIndex x = 0; x < 4; ++x) f.decoded.emplace(x, f.natives[x]);
  const std::uint64_t payload_words = (kM + 7) / 8;
  const WordArena::Stats& stats = WordArena::local().stats();
  const std::uint64_t before = stats.live_words;
  f.tracker.mark_decoded(0, 0);
  f.tracker.mark_decoded(3, 0);
  f.tracker.mark_decoded(2, 0);
  EXPECT_EQ(stats.live_words, before);
  f.tracker.mark_decoded(1, 0);
  EXPECT_EQ(stats.live_words, before - 3 * payload_words);
  EXPECT_EQ(f.tracker.materialize(3, 0, f.ops), f.xor_of(3, 0));
}

TEST(ComponentTracker, PaperFigure5Merge) {
  // Fig. 5: components {x2,x4} and {x3,x5,x7} merge when x3 ⊕ x4 arrives
  // (0-based: {1,3} and {2,4,6} merge via edge (2,3)).
  Fixture f(7);
  f.edge(1, 3);
  f.edge(2, 4);
  f.edge(4, 6);
  f.decode(5);  // x6 decoded in the figure
  EXPECT_FALSE(f.tracker.connected(1, 2));
  f.edge(2, 3);
  for (NativeIndex a : {1u, 2u, 3u, 4u, 6u}) {
    EXPECT_TRUE(f.tracker.connected(1, a));
  }
  EXPECT_FALSE(f.tracker.connected(0, 1));
  EXPECT_EQ(f.tracker.cc(5), 0u);
  EXPECT_EQ(f.tracker.materialize(1, 6, f.ops), f.xor_of(1, 6));
}

TEST(ComponentTracker, LeadersArrayMatchesQueries) {
  Fixture f(6);
  f.edge(0, 1);
  f.decode(5);
  const auto& leaders = f.tracker.leaders();
  ASSERT_EQ(leaders.size(), 6u);
  EXPECT_EQ(leaders[0], leaders[1]);
  EXPECT_EQ(leaders[5], 0u);
  EXPECT_NE(leaders[2], leaders[3]);
}

TEST(ComponentTracker, PickSubstitutePrefersLeastFrequent) {
  Fixture f(6);
  f.edge(0, 1);
  f.edge(1, 2);
  std::vector<std::uint64_t> occ{10, 4, 7, 0, 0, 0};
  const BitVector packet = BitVector::from_indices(6, {0});
  // Substitute for 0: candidates {1 (occ 4), 2 (occ 7)}; least is 1.
  auto pick = f.tracker.pick_substitute(0, occ, packet, occ[0], f.ops);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(ComponentTracker, PickSubstituteRespectsExclusionAndLimit) {
  Fixture f(6);
  f.edge(0, 1);
  f.edge(1, 2);
  std::vector<std::uint64_t> occ{5, 1, 3, 0, 0, 0};
  // 1 is already in the packet: the next candidate is 2.
  const BitVector excl = BitVector::from_indices(6, {0, 1});
  auto pick = f.tracker.pick_substitute(0, occ, excl, occ[0], f.ops);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
  // With a limit of 2, candidate 2 (occ 3) is not strictly less frequent.
  auto none = f.tracker.pick_substitute(0, occ, excl, 2, f.ops);
  EXPECT_FALSE(none.has_value());
}

TEST(ComponentTracker, PickSubstituteSeesGrownOccurrences) {
  // Stale heap entries must be refreshed lazily: grow 1's count after the
  // heap learned it, and verify the pick moves to 2.
  Fixture f(6);
  f.edge(0, 1);
  f.edge(1, 2);
  std::vector<std::uint64_t> occ{9, 1, 2, 0, 0, 0};
  const BitVector packet = BitVector::from_indices(6, {0});
  auto first = f.tracker.pick_substitute(0, occ, packet, occ[0], f.ops);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1u);
  occ[1] = 8;  // native 1 got used a lot since
  auto second = f.tracker.pick_substitute(0, occ, packet, occ[0], f.ops);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2u);
}

TEST(ComponentTracker, PickSubstituteInDecodedComponent) {
  Fixture f(6);
  f.decode(0, 5);
  f.decode(1, 2);
  f.decode(2, 9);
  std::vector<std::uint64_t> occ{5, 2, 9, 0, 0, 0};
  const BitVector packet = BitVector::from_indices(6, {0});
  auto pick = f.tracker.pick_substitute(0, occ, packet, occ[0], f.ops);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(ComponentTracker, SingletonHasNoSubstitute) {
  Fixture f(4);
  std::vector<std::uint64_t> occ{10, 0, 0, 0};
  const BitVector packet = BitVector::from_indices(4, {0});
  EXPECT_FALSE(
      f.tracker.pick_substitute(0, occ, packet, occ[0], f.ops).has_value());
}

TEST(ComponentTracker, AddEdgeWithDecodedEndpointThrows) {
  Fixture f(4);
  f.decode(0);
  EXPECT_THROW(f.edge(0, 1), std::logic_error);
}

TEST(ComponentTracker, RandomisedUnionFindEquivalence) {
  // Compare against a naive union-find on random edge streams, and verify
  // all materialised payloads.
  constexpr std::size_t k = 40;
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Fixture f(k, trial + 1);
    std::vector<int> uf(k);
    for (std::size_t i = 0; i < k; ++i) uf[i] = static_cast<int>(i);
    auto find = [&](int x) {
      while (uf[x] != x) x = uf[x] = uf[uf[x]];
      return x;
    };
    for (int e = 0; e < 60; ++e) {
      const auto a = static_cast<NativeIndex>(rng.uniform(k));
      const auto b = static_cast<NativeIndex>(rng.uniform(k));
      if (a == b) continue;
      f.edge(a, b);
      uf[find(a)] = find(b);
    }
    for (NativeIndex a = 0; a < k; ++a) {
      for (NativeIndex b = 0; b < a; ++b) {
        const bool expected = find(a) == find(b);
        ASSERT_EQ(f.tracker.connected(a, b), expected)
            << "trial " << trial << " pair " << a << "," << b;
        if (expected) {
          ASSERT_EQ(f.tracker.materialize(a, b, f.ops), f.xor_of(a, b));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ltnc::core
