#include "annsim/vptree/partition_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::vptree {
namespace {

PartitionTreeParams params(std::size_t parts) {
  PartitionTreeParams p;
  p.target_partitions = parts;
  p.vantage_candidates = 20;
  p.vantage_sample = 64;
  return p;
}

TEST(PartitionTree, BuildsBalancedPartitions) {
  auto w = data::make_sift_like(2048, 10, 41);
  auto built = PartitionTree::build(w.base, params(8));
  EXPECT_EQ(built.tree.n_partitions(), 8u);
  EXPECT_EQ(built.assignment.size(), 2048u);
  ASSERT_EQ(built.partition_sizes.size(), 8u);
  for (auto s : built.partition_sizes) {
    EXPECT_GE(s, 2048u / 8 - 2);
    EXPECT_LE(s, 2048u / 8 + 2);
  }
}

TEST(PartitionTree, DepthIsLogOfPartitions) {
  auto w = data::make_sift_like(1024, 5, 42);
  EXPECT_EQ(PartitionTree::build(w.base, params(8)).tree.depth(), 3u);
  EXPECT_EQ(PartitionTree::build(w.base, params(1)).tree.depth(), 0u);
}

TEST(PartitionTree, RejectsNonPowerOfTwo) {
  auto w = data::make_sift_like(100, 1, 43);
  EXPECT_THROW((void)PartitionTree::build(w.base, params(6)), Error);
}

TEST(PartitionTree, RejectsNonMetric) {
  auto w = data::make_sift_like(100, 1, 44);
  auto p = params(4);
  p.metric = simd::Metric::kCosine;
  EXPECT_THROW((void)PartitionTree::build(w.base, p), Error);
}

TEST(PartitionTree, RouteNearestMatchesAssignmentForBasePoints) {
  // A base point routed through the tree must land in its own partition
  // (ties at the boundary excepted; require near-total agreement).
  auto w = data::make_sift_like(1000, 1, 45);
  auto built = PartitionTree::build(w.base, params(8));
  std::size_t agree = 0;
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    if (built.tree.route_nearest(w.base.row(i)) == built.assignment[i]) ++agree;
  }
  EXPECT_GE(agree, w.base.size() * 99 / 100);
}

TEST(PartitionTree, RouteBallCoversTrueNeighbors) {
  // F(q) sufficiency: with radius = true k-th distance, the routed set must
  // contain the partitions of all true k nearest neighbors.
  auto w = data::make_sift_like(1200, 25, 46);
  auto built = PartitionTree::build(w.base, params(8));
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const float radius = gt[q].back().dist * (1.f + 1e-5f);
    auto parts = built.tree.route_ball(w.queries.row(q), radius);
    std::set<PartitionId> visited(parts.begin(), parts.end());
    for (const auto& nb : gt[q]) {
      EXPECT_TRUE(visited.contains(built.assignment[nb.id]))
          << "query " << q << " misses partition of neighbor " << nb.id;
    }
  }
}

TEST(PartitionTree, RouteBallWithInfinityVisitsAll) {
  auto w = data::make_sift_like(600, 1, 47);
  auto built = PartitionTree::build(w.base, params(8));
  auto parts = built.tree.route_ball(w.queries.row(0),
                                     std::numeric_limits<float>::infinity());
  EXPECT_EQ(parts.size(), 8u);
}

TEST(PartitionTree, RouteTopkOrderedByLowerBound) {
  auto w = data::make_sift_like(800, 20, 48);
  auto built = PartitionTree::build(w.base, params(16));
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto dec = built.tree.route_topk(w.queries.row(q), 6);
    ASSERT_EQ(dec.partitions.size(), 6u);
    ASSERT_EQ(dec.lower_bounds.size(), 6u);
    for (std::size_t i = 1; i < dec.lower_bounds.size(); ++i) {
      EXPECT_LE(dec.lower_bounds[i - 1], dec.lower_bounds[i]);
    }
    // Partitions must be distinct.
    std::set<PartitionId> uniq(dec.partitions.begin(), dec.partitions.end());
    EXPECT_EQ(uniq.size(), dec.partitions.size());
  }
}

TEST(PartitionTree, RouteTopkFirstIsNearest) {
  auto w = data::make_sift_like(800, 20, 49);
  auto built = PartitionTree::build(w.base, params(8));
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto dec = built.tree.route_topk(w.queries.row(q), 1);
    ASSERT_EQ(dec.partitions.size(), 1u);
    EXPECT_EQ(dec.partitions[0], built.tree.route_nearest(w.queries.row(q)));
    EXPECT_FLOAT_EQ(dec.lower_bounds[0], 0.f);
  }
}

TEST(PartitionTree, RouteTopkCappedAtPartitionCount) {
  auto w = data::make_sift_like(400, 2, 50);
  auto built = PartitionTree::build(w.base, params(4));
  auto dec = built.tree.route_topk(w.queries.row(0), 100);
  EXPECT_EQ(dec.partitions.size(), 4u);
}

TEST(PartitionTree, MoreProbesImproveRecallCoverage) {
  // Fraction of true neighbors inside the probed partitions grows with
  // n_probe — the recall/time dial of the single-pass mode.
  auto w = data::make_sift_like(2000, 30, 51);
  auto built = PartitionTree::build(w.base, params(16));
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  auto coverage = [&](std::size_t probes) {
    std::size_t hit = 0, total = 0;
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      auto dec = built.tree.route_topk(w.queries.row(q), probes);
      std::set<PartitionId> visited(dec.partitions.begin(), dec.partitions.end());
      for (const auto& nb : gt[q]) {
        ++total;
        if (visited.contains(built.assignment[nb.id])) ++hit;
      }
    }
    return double(hit) / double(total);
  };
  const double c1 = coverage(1);
  const double c4 = coverage(4);
  const double c16 = coverage(16);
  EXPECT_LE(c1, c4 + 1e-12);
  EXPECT_LE(c4, c16 + 1e-12);
  EXPECT_DOUBLE_EQ(c16, 1.0);  // probing everything covers everything
}

TEST(PartitionTree, SerializeRoundTrip) {
  auto w = data::make_sift_like(512, 10, 52);
  auto built = PartitionTree::build(w.base, params(8));
  BinaryWriter wtr;
  built.tree.serialize(wtr);
  auto bytes = wtr.take();
  BinaryReader rd(bytes);
  auto copy = PartitionTree::deserialize(rd);
  EXPECT_EQ(copy.n_partitions(), built.tree.n_partitions());
  EXPECT_EQ(copy.dim(), built.tree.dim());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(copy.route_nearest(w.queries.row(q)),
              built.tree.route_nearest(w.queries.row(q)));
    EXPECT_EQ(copy.route_topk(w.queries.row(q), 3).partitions,
              built.tree.route_topk(w.queries.row(q), 3).partitions);
  }
}

TEST(PartitionTree, SinglePartitionRoutesEverythingToZero) {
  auto w = data::make_sift_like(64, 5, 53);
  auto built = PartitionTree::build(w.base, params(1));
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(built.tree.route_nearest(w.queries.row(q)), 0u);
  }
  for (auto a : built.assignment) EXPECT_EQ(a, 0u);
}

/// Parameterized: partition balance holds across partition counts.
class PartitionCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionCounts, BalancedAtEveryScale) {
  const std::size_t parts = GetParam();
  auto w = data::make_deep_like(parts * 64, 4, 54);
  auto built = PartitionTree::build(w.base, params(parts));
  const auto [lo, hi] = std::minmax_element(built.partition_sizes.begin(),
                                            built.partition_sizes.end());
  EXPECT_LE(*hi - *lo, parts);  // ties can shift a handful of points
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionCounts,
                         ::testing::Values(2, 4, 8, 16, 32));

/// VP and KD nodes route by the same rules, so one routing contract holds
/// for both: best-first routing lists every partition once, in
/// nondecreasing lower bound, starting at the partition that contains the
/// query, and an infinite ball reaches every partition.
std::string split_rule_name(
    const ::testing::TestParamInfo<PartitionTreeKind>& param) {
  return param.param == PartitionTreeKind::kVpTree ? "Vp" : "Kd";
}

class SplitRules : public ::testing::TestWithParam<PartitionTreeKind> {};

TEST_P(SplitRules, RoutingContractHoldsForBothSplitRules) {
  constexpr std::size_t kParts = 16;
  const data::Workload corpora[] = {data::make_sift_like(1024, 40, 55),
                                    data::make_syn(1024, 6, 0, 40, 56)};
  for (const auto& w : corpora) {
    auto built = PartitionTree::build(w.base, params(kParts), GetParam());
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      const float* query = w.queries.row(q);
      const auto dec = built.tree.route_topk(query, kParts);
      ASSERT_EQ(dec.partitions.size(), kParts);
      const std::set<PartitionId> uniq(dec.partitions.begin(),
                                       dec.partitions.end());
      EXPECT_EQ(uniq.size(), kParts);
      for (std::size_t i = 1; i < kParts; ++i) {
        EXPECT_LE(dec.lower_bounds[i - 1], dec.lower_bounds[i]);
      }
      EXPECT_EQ(dec.partitions[0], built.tree.route_nearest(query));
      EXPECT_EQ(built.tree
                    .route_ball(query, std::numeric_limits<float>::infinity())
                    .size(),
                kParts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SplitRules,
                         ::testing::Values(PartitionTreeKind::kVpTree,
                                           PartitionTreeKind::kKdTree),
                         split_rule_name);

}  // namespace
}  // namespace annsim::vptree
