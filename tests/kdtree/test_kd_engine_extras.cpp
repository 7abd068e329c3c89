/// Additional KD-baseline coverage: router edge geometry and engine
/// behaviour under unusual shapes.

#include <gtest/gtest.h>

#include "annsim/common/error.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::vptree {
namespace {

/// The KD baseline engine: KD router, exact local trees with the KD split
/// rule, exact routing.
core::EngineConfig kd_config(std::size_t n_workers) {
  core::EngineConfig cfg;
  cfg.n_workers = n_workers;
  cfg.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
  cfg.local_index = core::LocalIndexKind::kExactTree;
  cfg.exact_routing = true;
  return cfg;
}

TEST(KdTreeExtras, ConstantAxisData) {
  // All points identical on every axis: splits are degenerate but search
  // must still return k results.
  data::Dataset d(64, 4);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 4; ++j) d.row(i)[j] = 2.f;
  }
  const core::ExactTreeIndex tree(&d, simd::Metric::kL2,
                                  vptree::PartitionTreeKind::kKdTree);
  float q[4] = {2.f, 2.f, 2.f, 2.f};
  auto res = tree.search_exact(q, 10);
  ASSERT_EQ(res.size(), 10u);
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_EQ(res[i].dist, 0.f);
    EXPECT_EQ(res[i].id, i);  // ties resolve on id
  }
}

TEST(KdTreeExtras, PartitionRouterSingleLeaf) {
  auto w = data::make_sift_like(64, 5, 902);
  auto tree = vptree::PartitionTree::build(w.base, {.target_partitions = 1},
                                           vptree::PartitionTreeKind::kKdTree)
                  .tree;
  EXPECT_EQ(tree.n_partitions(), 1u);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(tree.route_nearest(w.queries.row(q)), 0u);
    EXPECT_EQ(tree.route_ball(w.queries.row(q), 1e9f).size(), 1u);
  }
}

TEST(KdEngineExtras, RepeatedSearchesDeterministic) {
  auto w = data::make_sift_like(800, 15, 903);
  core::DistributedAnnEngine eng(&w.base, kd_config(4));
  eng.build();
  auto a = eng.search(w.queries, 5);
  auto b = eng.search(w.queries, 5);
  for (std::size_t q = 0; q < a.size(); ++q) EXPECT_EQ(a[q], b[q]);
}

TEST(KdEngineExtras, DoubleBuildThrows) {
  auto w = data::make_sift_like(300, 5, 904);
  core::DistributedAnnEngine eng(&w.base, kd_config(4));
  eng.build();
  EXPECT_THROW(eng.build(), Error);
}

TEST(KdEngineExtras, KOne) {
  auto w = data::make_sift_like(500, 10, 905);
  core::DistributedAnnEngine eng(&w.base, kd_config(4));
  eng.build();
  auto res = eng.search(w.queries, 1);
  auto gt = data::brute_force_knn(w.base, w.queries, 1, simd::Metric::kL2);
  for (std::size_t q = 0; q < res.size(); ++q) {
    ASSERT_EQ(res[q].size(), 1u);
    EXPECT_EQ(res[q][0].id, gt[q][0].id);
  }
}

}  // namespace
}  // namespace annsim::vptree
