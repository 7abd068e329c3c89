#include "annsim/hnsw/hnsw_index.hpp"

#include <gtest/gtest.h>

#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::hnsw {
namespace {

const data::Workload& sift_workload() {
  static data::Workload w = data::make_sift_like(3000, 50, 77);
  return w;
}

HnswParams fast_params() {
  HnswParams p;
  p.M = 12;
  p.ef_construction = 80;
  p.ef_search = 64;
  return p;
}

TEST(Hnsw, RejectsBadParams) {
  data::Dataset d(10, 4);
  HnswParams p;
  p.M = 1;
  EXPECT_THROW(HnswIndex(&d, p), Error);
  p = HnswParams{};
  p.ef_construction = p.M - 1;
  EXPECT_THROW(HnswIndex(&d, p), Error);
}

TEST(Hnsw, EmptyIndexReturnsNothing) {
  data::Dataset d(0, 4);
  HnswIndex index(&d, fast_params());
  index.build();
  float q[4] = {0, 0, 0, 0};
  EXPECT_TRUE(index.search(q, 5).empty());
}

TEST(Hnsw, SingleElement) {
  data::Dataset d(1, 4);
  d.row(0)[0] = 1.f;
  HnswIndex index(&d, fast_params());
  index.build();
  float q[4] = {1.f, 0, 0, 0};
  auto res = index.search(q, 3);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 0u);
  EXPECT_NEAR(res[0].dist, 0.f, 1e-6f);
}

TEST(Hnsw, ExactOnTinySetWithFullBeam) {
  // With ef >= n the beam covers everything: results must be exact.
  auto w = data::make_deep_like(60, 10, 5);
  HnswIndex index(&w.base, fast_params());
  index.build();
  auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto res = index.search(w.queries.row(q), 5, /*ef=*/60);
    ASSERT_EQ(res.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id) << "query " << q << " pos " << i;
    }
  }
}

TEST(Hnsw, HighRecallOnSiftLike) {
  const auto& w = sift_workload();
  HnswIndex index(&w.base, fast_params());
  index.build();
  data::KnnResults results(w.queries.size());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    results[q] = index.search(w.queries.row(q), 10);
  }
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_GT(data::mean_recall(results, gt, 10), 0.9);
}

TEST(Hnsw, LargerEfImprovesRecall) {
  const auto& w = sift_workload();
  HnswIndex index(&w.base, fast_params());
  index.build();
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  auto run = [&](std::size_t ef) {
    data::KnnResults results(w.queries.size());
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      results[q] = index.search(w.queries.row(q), 10, ef);
    }
    return data::mean_recall(results, gt, 10);
  };
  const double lo = run(10);
  const double hi = run(200);
  EXPECT_GE(hi, lo);
  EXPECT_GT(hi, 0.95);
}

TEST(Hnsw, ResultsSortedAndUnique) {
  const auto& w = sift_workload();
  HnswIndex index(&w.base, fast_params());
  index.build();
  for (std::size_t q = 0; q < 10; ++q) {
    auto res = index.search(w.queries.row(q), 20);
    for (std::size_t i = 1; i < res.size(); ++i) {
      EXPECT_LE(res[i - 1].dist, res[i].dist);
      EXPECT_NE(res[i - 1].id, res[i].id);
    }
  }
}

TEST(Hnsw, ReportsGlobalIds) {
  auto w = data::make_sift_like(200, 5, 3);
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    w.base.set_id(i, 1000 + i);
  }
  HnswIndex index(&w.base, fast_params());
  index.build();
  auto res = index.search(w.queries.row(0), 5);
  ASSERT_FALSE(res.empty());
  for (const auto& n : res) EXPECT_GE(n.id, 1000u);
}

TEST(Hnsw, DeterministicBuildWithSameSeed) {
  auto w = data::make_sift_like(500, 10, 4);
  HnswIndex a(&w.base, fast_params());
  HnswIndex b(&w.base, fast_params());
  a.build();
  b.build();
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(a.search(w.queries.row(q), 10), b.search(w.queries.row(q), 10));
  }
}

TEST(Hnsw, ParallelBuildMatchesQuality) {
  const auto& w = sift_workload();
  ThreadPool pool(4);
  HnswIndex index(&w.base, fast_params());
  index.build(&pool);
  EXPECT_EQ(index.size(), w.base.size());
  data::KnnResults results(w.queries.size());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    results[q] = index.search(w.queries.row(q), 10);
  }
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_GT(data::mean_recall(results, gt, 10), 0.85);
}

TEST(Hnsw, DoubleInsertThrows) {
  data::Dataset d(5, 4);
  HnswIndex index(&d, fast_params());
  index.insert(0);
  EXPECT_THROW(index.insert(0), Error);
}

TEST(Hnsw, StatsReflectStructure) {
  const auto& w = sift_workload();
  HnswIndex index(&w.base, fast_params());
  index.build();
  const auto s = index.stats();
  EXPECT_EQ(s.n_nodes, w.base.size());
  EXPECT_GE(s.max_level, 1);
  ASSERT_FALSE(s.nodes_per_level.empty());
  EXPECT_EQ(s.nodes_per_level[0], w.base.size());
  for (std::size_t l = 1; l < s.nodes_per_level.size(); ++l) {
    EXPECT_LE(s.nodes_per_level[l], s.nodes_per_level[l - 1]);
  }
  EXPECT_GT(s.avg_degree_level0, 1.0);
  EXPECT_LE(s.avg_degree_level0, double(2 * fast_params().M));
}

TEST(Hnsw, BytesRoundTripPreservesSearch) {
  auto w = data::make_sift_like(800, 10, 6);
  HnswIndex index(&w.base, fast_params());
  index.build();
  auto bytes = index.to_bytes();
  HnswIndex copy = HnswIndex::from_bytes(bytes, &w.base);
  EXPECT_EQ(copy.size(), index.size());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(copy.search(w.queries.row(q), 10),
              index.search(w.queries.row(q), 10));
  }
}

TEST(Hnsw, ImageRoundTripOnASmallIndex) {
  auto w = data::make_sift_like(400, 5, 8);
  HnswIndex index(&w.base, fast_params());
  index.build();
  HnswIndex loaded = HnswIndex::from_bytes(index.to_bytes(), &w.base);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(loaded.search(w.queries.row(q), 5),
              index.search(w.queries.row(q), 5));
  }
}

TEST(Hnsw, LoadRejectsWrongDataset) {
  auto w = data::make_sift_like(100, 2, 9);
  HnswIndex index(&w.base, fast_params());
  index.build();
  auto bytes = index.to_bytes();
  data::Dataset other(50, 128);
  EXPECT_THROW((void)HnswIndex::from_bytes(bytes, &other), Error);
}

/// Fig 6's knob: the index must build and search sensibly at every M the
/// paper sweeps.
class HnswMSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HnswMSweep, BuildsAndSearchesAtEveryM) {
  const std::size_t M = GetParam();
  auto w = data::make_sift_like(1000, 20, 10);
  HnswParams p;
  p.M = M;
  p.ef_construction = std::max<std::size_t>(M * 2, 60);
  p.ef_search = 50;
  HnswIndex index(&w.base, p);
  index.build();
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  data::KnnResults results(w.queries.size());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    results[q] = index.search(w.queries.row(q), 10);
  }
  EXPECT_GT(data::mean_recall(results, gt, 10), 0.6) << "M=" << M;
}

INSTANTIATE_TEST_SUITE_P(PaperMs, HnswMSweep, ::testing::Values(8, 16, 32, 64));

TEST(Hnsw, InsertAfterFreezeThrowsTypedError) {
  auto w = data::make_sift_like(100, 2, 33);
  HnswIndex index(&w.base, fast_params());
  index.build();  // build() freezes into the flat read-optimized graph
  ASSERT_TRUE(index.is_frozen());

  // The violation carries its own type so callers needing mutability (the
  // segmented delta) can distinguish "this index froze" from generic errors
  // and roll over to a fresh delta instead of failing the write.
  EXPECT_THROW(index.insert(LocalId(0)), FrozenIndexError);
  try {
    index.insert(LocalId(0));
    FAIL() << "insert after freeze must throw";
  } catch (const Error& e) {
    EXPECT_NE(dynamic_cast<const FrozenIndexError*>(&e), nullptr)
        << "FrozenIndexError must stay catchable through the Error base";
  }

  // Deserialized replicas come up frozen and enforce the same contract.
  auto clone = HnswIndex::from_bytes(index.to_bytes(), &w.base);
  ASSERT_TRUE(clone.is_frozen());
  EXPECT_THROW(clone.insert(LocalId(0)), FrozenIndexError);
}

TEST(BruteForceIndex, MatchesGroundTruth) {
  auto w = data::make_deep_like(300, 10, 11);
  BruteForceIndex index(&w.base, simd::Metric::kL2);
  auto gt = data::brute_force_knn(w.base, w.queries, 7, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(index.search(w.queries.row(q), 7), gt[q]);
  }
}

}  // namespace
}  // namespace annsim::hnsw
