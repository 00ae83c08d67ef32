#include "net/peer_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace ltnc::net {
namespace {

TEST(UniformSampler, NeverReturnsSelf) {
  UniformSampler s(10);
  Rng rng(1);
  for (NodeId self = 0; self < 10; ++self) {
    for (int i = 0; i < 200; ++i) {
      const NodeId peer = s.sample(rng, self);
      ASSERT_NE(peer, self);
      ASSERT_LT(peer, 10u);
    }
  }
}

TEST(UniformSampler, CoversAllPeersUniformly) {
  constexpr std::size_t kN = 8;
  UniformSampler s(kN);
  Rng rng(2);
  std::vector<int> counts(kN, 0);
  constexpr int kSamples = 70000;
  for (int i = 0; i < kSamples; ++i) ++counts[s.sample(rng, 0)];
  EXPECT_EQ(counts[0], 0);
  const double expected = kSamples / static_cast<double>(kN - 1);
  for (std::size_t p = 1; p < kN; ++p) {
    EXPECT_NEAR(counts[p], expected, 5 * std::sqrt(expected)) << p;
  }
}

TEST(UniformSampler, TwoNodes) {
  UniformSampler s(2);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.sample(rng, 0), 1u);
    EXPECT_EQ(s.sample(rng, 1), 0u);
  }
}

TEST(GossipViewSampler, ViewsHaveRightShape) {
  Rng rng(4);
  GossipViewSampler s(20, 5, rng);
  for (NodeId n = 0; n < 20; ++n) {
    const auto& view = s.view_of(n);
    ASSERT_EQ(view.size(), 5u);
    for (NodeId p : view) {
      EXPECT_NE(p, n);
      EXPECT_LT(p, 20u);
    }
  }
}

TEST(GossipViewSampler, SamplesFromOwnView) {
  Rng rng(5);
  GossipViewSampler s(20, 5, rng);
  for (int i = 0; i < 100; ++i) {
    const NodeId peer = s.sample(rng, 3);
    const auto& view = s.view_of(3);
    EXPECT_NE(std::find(view.begin(), view.end(), peer), view.end());
  }
}

TEST(GossipViewSampler, TickRenewsViews) {
  Rng rng(6);
  GossipViewSampler s(50, 8, rng);
  const std::vector<NodeId> before = s.view_of(0);
  for (int i = 0; i < 10; ++i) s.tick(rng);
  const std::vector<NodeId>& after = s.view_of(0);
  EXPECT_NE(before, after);  // overwhelmingly likely after 40 renewals
  for (NodeId p : after) EXPECT_NE(p, 0u);
}

TEST(MakeSampler, Factory) {
  Rng rng(7);
  PeerSamplerConfig uniform{};
  EXPECT_NE(make_sampler(uniform, 4, rng), nullptr);
  PeerSamplerConfig gossip{};
  gossip.kind = PeerSamplerConfig::Kind::kGossipView;
  auto s = make_sampler(gossip, 4, rng);
  ASSERT_NE(s, nullptr);
  EXPECT_NE(dynamic_cast<GossipViewSampler*>(s.get()), nullptr);
}

}  // namespace
}  // namespace ltnc::net
