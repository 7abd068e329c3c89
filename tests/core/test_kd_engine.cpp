/// The Table III baseline (PANDA's exact distributed KD-tree) as a
/// configuration of DistributedAnnEngine: a KD router, exact local KD trees
/// and two-phase exact routing.

#include <gtest/gtest.h>

#include <numeric>

#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

EngineConfig kd_config(std::size_t n_workers) {
  EngineConfig cfg;
  cfg.n_workers = n_workers;
  cfg.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
  cfg.local_index = LocalIndexKind::kKdTree;
  cfg.exact_routing = true;
  return cfg;
}

TEST(KdEngine, ValidatesConfig) {
  data::Dataset d(100, 8);
  EXPECT_THROW(DistributedAnnEngine(&d, kd_config(5)), Error);
}

TEST(KdEngine, ExactResultsOnHighDim) {
  auto w = data::make_sift_like(2000, 40, 95);
  DistributedAnnEngine eng(&w.base, kd_config(8));
  eng.build();
  EXPECT_GT(eng.build_stats().total_seconds, 0.0);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);
  // The distributed KD baseline is exact: recall must be 1.0.
  EXPECT_DOUBLE_EQ(data::mean_recall(res, gt, 10), 1.0);
  // ... and at 128 dimensions it must visit almost every partition —
  // Table III's explanation.
  EXPECT_GT(st.mean_partitions_per_query, 6.0);
}

TEST(KdEngine, ExactResultsOnLowDimWithPruning) {
  auto w = data::make_syn(2048, 6, 0, 40, 96);
  DistributedAnnEngine eng(&w.base, kd_config(8));
  eng.build();
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);
  EXPECT_DOUBLE_EQ(data::mean_recall(res, gt, 10), 1.0);
  // In low dimension the ball intersects few cells.
  EXPECT_LT(st.mean_partitions_per_query, 6.0);
}

TEST(KdEngine, JobAccounting) {
  auto w = data::make_sift_like(1000, 20, 97);
  DistributedAnnEngine eng(&w.base, kd_config(4));
  eng.build();
  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  const auto sum = std::accumulate(st.jobs_per_worker.begin(),
                                   st.jobs_per_worker.end(), std::uint64_t{0});
  EXPECT_EQ(sum, st.total_jobs);
  EXPECT_GE(st.total_jobs, w.queries.size());  // at least phase 1
  EXPECT_GT(st.worker_compute_seconds, 0.0);
}

TEST(KdEngine, PartitionSizesBalanced) {
  auto w = data::make_sift_like(1024, 5, 98);
  DistributedAnnEngine eng(&w.base, kd_config(8));
  eng.build();
  for (auto s : eng.partition_sizes()) EXPECT_EQ(s, 128u);
}

TEST(KdEngine, SearchBeforeBuildThrows) {
  auto w = data::make_sift_like(200, 5, 99);
  DistributedAnnEngine eng(&w.base, kd_config(8));
  EXPECT_THROW((void)eng.search(w.queries, 5), Error);
}

TEST(KdEngine, MatchesVpHnswEngineGroundTruthOnSameData) {
  // Integration sanity: exact KD engine reproduces brute force on the exact
  // same workload the approximate engine runs.
  auto w = data::make_deep_like(1500, 25, 100);
  DistributedAnnEngine eng(&w.base, kd_config(4));
  eng.build();
  auto res = eng.search(w.queries, 5);
  auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL2);
  for (std::size_t q = 0; q < res.size(); ++q) {
    ASSERT_EQ(res[q].size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(res[q][i].id, gt[q][i].id) << "q=" << q << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace annsim::core
