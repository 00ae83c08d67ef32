#include "core/degree_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"

namespace ltnc::core {
namespace {

TEST(DegreeIndex, InsertRemoveRoundTrip) {
  DegreeIndex idx(16);
  idx.insert(0, 3);
  idx.insert(1, 3);
  idx.insert(2, 5);
  EXPECT_EQ(idx.count(3), 2u);
  EXPECT_EQ(idx.count(5), 1u);
  EXPECT_EQ(idx.total_packets(), 3u);
  idx.remove(0, 3);
  EXPECT_EQ(idx.count(3), 1u);
  EXPECT_EQ(idx.bucket(3).front(), 1u);
  idx.remove(1, 3);
  idx.remove(2, 5);
  EXPECT_EQ(idx.total_packets(), 0u);
}

TEST(DegreeIndex, ChangeMovesBuckets) {
  DegreeIndex idx(16);
  idx.insert(7, 4);
  idx.change(7, 4, 3);
  EXPECT_EQ(idx.count(4), 0u);
  EXPECT_EQ(idx.count(3), 1u);
}

TEST(DegreeIndex, RemoveAtWrongDegreeThrows) {
  DegreeIndex idx(16);
  idx.insert(3, 2);
  EXPECT_THROW(idx.remove(3, 4), std::logic_error);
}

TEST(DegreeIndex, WeightedSumMatchesDefinition) {
  DegreeIndex idx(16);
  // Paper's example: {deg 3, deg 2, deg 2} → Σ i·n(i) = 2·2 + 3 = 7.
  idx.insert(0, 3);
  idx.insert(1, 2);
  idx.insert(2, 2);
  EXPECT_EQ(idx.weighted_sum_up_to(16), 7u);
  EXPECT_EQ(idx.weighted_sum_up_to(2), 4u);
  EXPECT_EQ(idx.weighted_sum_up_to(1), 0u);
  EXPECT_EQ(idx.weighted_sum_up_to(0), 0u);
}

TEST(DegreeIndex, MaxDegree) {
  DegreeIndex idx(16);
  EXPECT_EQ(idx.max_degree(), 0u);
  idx.insert(0, 2);
  idx.insert(1, 9);
  EXPECT_EQ(idx.max_degree(), 9u);
  idx.remove(1, 9);
  EXPECT_EQ(idx.max_degree(), 2u);
}

TEST(DegreeIndex, MaxDegreeMatchesLinearScan) {
  // max_degree() is kept current by insert/change/remove; after every
  // operation it must equal a scan of all buckets from the top.
  constexpr std::size_t k = 64;
  DegreeIndex idx(k);
  std::map<PacketId, std::size_t> model;  // id -> degree
  const auto linear_max = [&] {
    for (std::size_t d = k; d >= 1; --d) {
      if (idx.count(d) != 0) return d;
    }
    return std::size_t{0};
  };
  Rng rng(4321);
  PacketId next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform_double();
    if (roll < 0.35 || model.empty()) {
      // Mostly low degrees with rare high ones, like a Soliton draw, so
      // the top bucket empties often and the scan has gaps to cross.
      const std::size_t d =
          rng.uniform_double() < 0.1 ? 1 + rng.uniform(k) : 1 + rng.uniform(4);
      idx.insert(next_id, d);
      model[next_id++] = d;
    } else if (roll < 0.75) {
      auto it = model.begin();
      std::advance(it, rng.uniform(model.size()));
      if (it->second > 1) {
        idx.change(it->first, it->second, it->second - 1);
        --it->second;
      }
    } else {
      auto it = model.begin();
      std::advance(it, rng.uniform(model.size()));
      idx.remove(it->first, it->second);
      model.erase(it);
    }
    ASSERT_EQ(idx.max_degree(), linear_max()) << "step " << step;
  }
}

TEST(DegreeIndex, RandomisedAgainstModel) {
  constexpr std::size_t k = 32;
  DegreeIndex idx(k);
  std::map<PacketId, std::size_t> model;  // id -> degree
  Rng rng(1234);
  PacketId next_id = 0;
  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.uniform_double();
    if (roll < 0.4 || model.empty()) {
      const std::size_t d = 1 + rng.uniform(k);
      idx.insert(next_id, d);
      model[next_id] = d;
      ++next_id;
    } else if (roll < 0.7) {
      auto it = model.begin();
      std::advance(it, rng.uniform(model.size()));
      if (it->second > 1) {
        idx.change(it->first, it->second, it->second - 1);
        --it->second;
      }
    } else {
      auto it = model.begin();
      std::advance(it, rng.uniform(model.size()));
      idx.remove(it->first, it->second);
      model.erase(it);
    }
    // Periodic full consistency check.
    if (step % 100 == 0) {
      std::map<std::size_t, std::size_t> by_degree;
      std::uint64_t weighted = 0;
      for (const auto& [id, d] : model) {
        ++by_degree[d];
        weighted += d;
      }
      ASSERT_EQ(idx.total_packets(), model.size());
      for (std::size_t d = 1; d <= k; ++d) {
        ASSERT_EQ(idx.count(d), by_degree.contains(d) ? by_degree[d] : 0u);
      }
      ASSERT_EQ(idx.weighted_sum_up_to(k), weighted);
    }
  }
}

}  // namespace
}  // namespace ltnc::core
