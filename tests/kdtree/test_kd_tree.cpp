#include <gtest/gtest.h>

#include <set>

#include "annsim/common/error.hpp"
#include "annsim/core/local_index.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::vptree {
namespace {

/// The Table III baseline's exact local index: the exact tree with the KD
/// split rule.
core::ExactTreeIndex kd_tree(const data::Dataset& base,
                             simd::Metric metric = simd::Metric::kL2) {
  return core::ExactTreeIndex(&base, metric, vptree::PartitionTreeKind::kKdTree);
}

TEST(ExactKdTree, ExactOnLowDim) {
  auto w = data::make_syn(1500, 8, 0, 30, 61);
  const auto tree = kd_tree(w.base);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto res = tree.search_exact(w.queries.row(q), 10);
    ASSERT_EQ(res.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id) << "q=" << q << " i=" << i;
    }
  }
}

TEST(ExactKdTree, ExactOnHighDim) {
  auto w = data::make_sift_like(800, 15, 62);
  const auto tree = kd_tree(w.base);
  auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto res = tree.search_exact(w.queries.row(q), 5);
    ASSERT_EQ(res.size(), 5u);
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id);
    }
  }
}

TEST(ExactKdTree, ExactUnderL1) {
  auto w = data::make_syn(600, 6, 0, 15, 63);
  const auto tree = kd_tree(w.base, simd::Metric::kL1);
  auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL1);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto res = tree.search_exact(w.queries.row(q), 5);
    ASSERT_EQ(res.size(), 5u);
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id);
    }
  }
}

TEST(ExactKdTree, RejectsNonCoordinateMetric) {
  data::Dataset d(10, 4);
  EXPECT_THROW((void)kd_tree(d, simd::Metric::kCosine), Error);
}

TEST(ExactKdTree, EmptyAndSingle) {
  data::Dataset empty(0, 3);
  const auto t0 = kd_tree(empty);
  float q[3] = {};
  EXPECT_TRUE(t0.search_exact(q, 2).empty());

  data::Dataset one(1, 3);
  const auto t1 = kd_tree(one);
  auto res = t1.search_exact(q, 2);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 0u);
}

TEST(ExactKdTree, PruningCollapsesInLowDimOnly) {
  // The paper's central claim: KD pruning works at low dimension and decays
  // at high dimension. Compare the visited fraction at dim 4 vs dim 128.
  auto low = data::make_syn(2000, 4, 0, 20, 64);
  auto high = data::make_sift_like(2000, 20, 64);
  const auto t_low = kd_tree(low.base);
  const auto t_high = kd_tree(high.base);
  auto mean_evals = [](const core::ExactTreeIndex& t,
                       const data::Dataset& queries) {
    std::size_t total = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::size_t evals = 0;
      (void)t.search_exact(queries.row(q), 10, &evals);
      total += evals;
    }
    return double(total) / double(queries.size());
  };
  const double frac_low = mean_evals(t_low, low.queries) / 2000.0;
  const double frac_high = mean_evals(t_high, high.queries) / 2000.0;
  EXPECT_LT(frac_low, 0.5);
  EXPECT_GT(frac_high, 2.0 * frac_low);
}

// ----------------------------------------------- KD partition router ---

vptree::PartitionBuildResult build_kd_router(const data::Dataset& base,
                                             std::size_t parts) {
  return vptree::PartitionTree::build(base, {.target_partitions = parts},
                                      vptree::PartitionTreeKind::kKdTree);
}

TEST(KdPartitionRouter, BalancedBuild) {
  auto w = data::make_sift_like(1024, 5, 65);
  auto [tree, assignment, partition_sizes] = build_kd_router(w.base, 8);
  EXPECT_EQ(tree.n_partitions(), 8u);
  std::vector<std::size_t> sizes(8, 0);
  for (auto a : assignment) {
    ASSERT_NE(a, kInvalidPartition);
    ++sizes[a];
  }
  for (auto s : sizes) EXPECT_EQ(s, 128u);
}

TEST(KdPartitionRouter, RejectsNonPowerOfTwo) {
  auto w = data::make_sift_like(100, 1, 66);
  EXPECT_THROW((void)build_kd_router(w.base, 3), Error);
}

TEST(KdPartitionRouter, RouteNearestMatchesAssignment) {
  auto w = data::make_sift_like(1000, 1, 67);
  auto [tree, assignment, partition_sizes] = build_kd_router(w.base, 8);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    if (tree.route_nearest(w.base.row(i)) == assignment[i]) ++agree;
  }
  // SIFT-like coordinates are integers, so ties exactly on a split plane are
  // common; those points may legitimately route to the sibling cell.
  EXPECT_GE(agree, w.base.size() * 97 / 100);
}

TEST(KdPartitionRouter, RouteBallCoversTrueNeighbors) {
  auto w = data::make_sift_like(1200, 25, 68);
  auto [tree, assignment, partition_sizes] = build_kd_router(w.base, 8);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const float radius = gt[q].back().dist * (1.f + 1e-5f);
    auto parts = tree.route_ball(w.queries.row(q), radius);
    std::set<PartitionId> visited(parts.begin(), parts.end());
    for (const auto& nb : gt[q]) {
      EXPECT_TRUE(visited.contains(assignment[nb.id]));
    }
  }
}

TEST(KdPartitionRouter, HighDimVisitsMorePartitionsThanLowDim) {
  // The Table III mechanism, stated as a property of the two routers.
  auto low = data::make_syn(2048, 4, 0, 30, 69);
  auto high = data::make_sift_like(2048, 30, 69);
  auto visited_frac = [](const data::Workload& w) {
    const auto tree = build_kd_router(w.base, 16).tree;
    auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
    std::size_t total = 0;
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      total += tree.route_ball(w.queries.row(q), gt[q].back().dist).size();
    }
    return double(total) / double(w.queries.size() * 16);
  };
  const double frac_low = visited_frac(low);
  const double frac_high = visited_frac(high);
  EXPECT_GT(frac_high, frac_low);
  EXPECT_GT(frac_high, 0.5);  // near-total visit at 128-d
}

}  // namespace
}  // namespace annsim::vptree
