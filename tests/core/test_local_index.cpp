#include "annsim/core/local_index.hpp"

#include "annsim/core/engine.hpp"

#include <gtest/gtest.h>

#include "annsim/common/error.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

LocalIndexParams params_of(
    LocalIndexKind kind,
    vptree::PartitionTreeKind tree = vptree::PartitionTreeKind::kVpTree) {
  LocalIndexParams p;
  p.kind = kind;
  p.tree = tree;
  p.hnsw.M = 8;
  p.hnsw.ef_construction = 60;
  p.hnsw.ef_search = 64;
  return p;
}

class LocalIndexKinds : public ::testing::TestWithParam<LocalIndexKind> {};

TEST_P(LocalIndexKinds, IsAKnownKind) {
  EXPECT_TRUE(is_local_index_kind(GetParam()));
}

TEST_P(LocalIndexKinds, BuildsAndReportsKind) {
  auto w = data::make_sift_like(500, 10, 201);
  auto index = build_local_index(&w.base, params_of(GetParam()));
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->kind(), GetParam());
  EXPECT_EQ(index->size(), 500u);
}

TEST_P(LocalIndexKinds, SearchReturnsSortedGlobalIds) {
  auto w = data::make_sift_like(500, 10, 202);
  for (std::size_t i = 0; i < w.base.size(); ++i) w.base.set_id(i, 7000 + i);
  auto index = build_local_index(&w.base, params_of(GetParam()));
  auto res = index->search(w.queries.row(0), 5, 64);
  ASSERT_EQ(res.size(), 5u);
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_GE(res[i].id, 7000u);
    if (i > 0) {
      EXPECT_LE(res[i - 1].dist, res[i].dist);
    }
  }
}

TEST_P(LocalIndexKinds, BytesRoundTripPreservesResults) {
  auto w = data::make_sift_like(400, 20, 203);
  const auto params = params_of(GetParam());
  auto index = build_local_index(&w.base, params);
  auto copy = local_index_from_bytes(index->to_bytes(), &w.base, params);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(copy->search(w.queries.row(q), 10, 64),
              index->search(w.queries.row(q), 10, 64));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, LocalIndexKinds,
                         ::testing::Values(LocalIndexKind::kHnsw,
                                           LocalIndexKind::kBruteForce,
                                           LocalIndexKind::kExactTree));

TEST(LocalIndex, ExactKindsMatchGroundTruth) {
  auto w = data::make_deep_like(600, 15, 204);
  auto gt = data::brute_force_knn(w.base, w.queries, 8, simd::Metric::kL2);
  struct Case {
    LocalIndexKind kind;
    vptree::PartitionTreeKind tree;
  };
  for (const Case c : {Case{LocalIndexKind::kBruteForce,
                            vptree::PartitionTreeKind::kVpTree},
                       Case{LocalIndexKind::kExactTree,
                            vptree::PartitionTreeKind::kVpTree},
                       Case{LocalIndexKind::kExactTree,
                            vptree::PartitionTreeKind::kKdTree}}) {
    auto index = build_local_index(&w.base, params_of(c.kind, c.tree));
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      auto res = index->search(w.queries.row(q), 8, 0);
      ASSERT_EQ(res.size(), 8u);
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(res[i].id, gt[q][i].id)
            << local_index_kind_name(c.kind) << " rule " << int(c.tree)
            << " q=" << q << " i=" << i;
      }
    }
  }
}

TEST(LocalIndex, KindNamesStable) {
  EXPECT_STREQ(local_index_kind_name(LocalIndexKind::kHnsw), "hnsw");
  EXPECT_STREQ(local_index_kind_name(LocalIndexKind::kBruteForce), "bruteforce");
  EXPECT_STREQ(local_index_kind_name(LocalIndexKind::kExactTree), "exacttree");
  // The retired tree kinds' bytes name no kind.
  EXPECT_FALSE(is_local_index_kind(LocalIndexKind(2)));
  EXPECT_FALSE(is_local_index_kind(LocalIndexKind(5)));
}

TEST(EngineLocalIndex, BruteForceWithExactRoutingIsExact) {
  // §VI composed: exact local search + exact F(q) routing = exact
  // distributed k-NN, recall 1.0 by construction.
  auto w = data::make_sift_like(2000, 40, 205);
  EngineConfig cfg;
  cfg.n_workers = 8;
  cfg.local_index = LocalIndexKind::kBruteForce;
  cfg.exact_routing = true;
  cfg.threads_per_worker = 1;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 64;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto res = eng.search(w.queries, 10);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_DOUBLE_EQ(data::mean_recall(res, gt, 10), 1.0);
}

TEST(EngineLocalIndex, ExactTreeLocalIndexWorksWithReplication) {
  auto w = data::make_sift_like(1600, 20, 206);
  EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.replication = 2;
  cfg.local_index = LocalIndexKind::kExactTree;
  cfg.n_probe = 2;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 64;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto res = eng.search(w.queries, 10);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  // Local search is exact; residual loss is routing-only.
  EXPECT_GT(data::mean_recall(res, gt, 10), 0.7);
}

TEST(EngineLocalIndex, IvfPqCompressedDistributedEngine) {
  // Compose the compressed index into the distributed engine: recall is
  // bounded by the quantization ceiling but far above chance, and memory
  // per worker is a fraction of the raw vectors.
  auto w = data::make_sift_like(3200, 30, 207);
  EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.n_probe = 3;
  cfg.local_index = LocalIndexKind::kIvfPq;
  cfg.ivfpq.nlist = 16;
  cfg.ivfpq.nprobe = 16;  // scan everything locally: isolates PQ error
  cfg.ivfpq.pq.m = 8;
  cfg.ivfpq.pq.ks = 64;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 64;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto res = eng.search(w.queries, 10);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  // Id-only recall (ADC distances are approximate).
  double recall = 0;
  for (std::size_t q = 0; q < res.size(); ++q) {
    std::size_t hits = 0;
    for (const auto& r : res[q]) {
      for (const auto& t : gt[q]) {
        if (r.id == t.id) { ++hits; break; }
      }
    }
    recall += double(hits) / 10.0;
  }
  recall /= double(res.size());
  EXPECT_GT(recall, 0.3);
  EXPECT_LT(recall, 1.0);  // the compression ceiling is real
}

TEST(EngineLocalIndex, IvfPqRejectsNonL2AtConstruction) {
  auto w = data::make_syn(800, 16, 0, 5, 208);
  EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.local_index = LocalIndexKind::kIvfPq;
  cfg.hnsw.metric = simd::Metric::kL1;
  // Must fail before the SPMD region: a rank throwing mid-build would
  // strand its peers (as in real MPI).
  EXPECT_THROW(DistributedAnnEngine(&w.base, cfg), Error);
}

}  // namespace
}  // namespace annsim::core
