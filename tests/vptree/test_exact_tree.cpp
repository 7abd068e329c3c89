/// The exact local index (core::ExactTreeIndex, kind kExactTree): a
/// bucket-leaf PartitionTree searched best-first. Its answers must equal
/// brute force in ids and distance bits under both split rules and both true
/// metrics, on data built to tie.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <tuple>

#include "annsim/common/error.hpp"
#include "annsim/core/local_index.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::vptree {
namespace {

using core::ExactTreeIndex;

enum class Shape { kSiftLike, kDuplicatedRows, kConstantAxis, kUniform2d };

/// `n` rows of `shape` plus queries and, when n > 0, a few base rows as
/// queries (distance-0 hits and ties). kUniform2d draws rows and queries from
/// one 2-d square, where the k-NN ball crosses many splits and a bound that
/// is too large drops true neighbours; the other shapes are 128-d with
/// SIFT-like queries.
data::Workload make_shape(Shape shape, std::size_t n) {
  auto w = data::make_sift_like(600, 12, 1101);
  if (shape == Shape::kUniform2d) {
    Rng rng(1102);
    w.base.reset(600, 2);
    w.queries.reset(12, 2);
    for (data::Dataset* d : {&w.base, &w.queries}) {
      for (std::size_t i = 0; i < d->size(); ++i) {
        d->row(i)[0] = rng.uniformf();
        d->row(i)[1] = rng.uniformf();
      }
    }
  }
  data::Dataset base = w.base.slice(0, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < base.dim(); ++j) {
      if (shape == Shape::kDuplicatedRows) {
        base.row(i)[j] = w.base.row(i % 7)[j];  // 7 distinct rows, repeated
      } else if (shape == Shape::kConstantAxis) {
        base.row(i)[j] = j == 0 ? float(i % 5) : 2.f;  // one live axis
      }
    }
  }
  data::Dataset queries(w.queries.size() + std::min<std::size_t>(n, 4),
                        base.dim());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const float* src = q < w.queries.size()
                           ? w.queries.row(q)
                           : base.row((q - w.queries.size()) * 3 % n);
    queries.set_row(q, {src, base.dim()});
  }
  return {"shape", std::move(base), std::move(queries)};
}

/// Every answer equals brute force: same ids in the same order, same
/// distance bits.
void expect_brute_force(const ExactTreeIndex& index, const data::Workload& w,
                        std::size_t k, simd::Metric metric) {
  const auto gt = data::brute_force_knn(w.base, w.queries, k, metric);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const auto res = index.search(w.queries.row(q), k, 0);
    ASSERT_EQ(res.size(), gt[q].size()) << "q=" << q;
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id) << "q=" << q << " i=" << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(res[i].dist),
                std::bit_cast<std::uint32_t>(gt[q][i].dist))
          << "q=" << q << " i=" << i;
    }
  }
}

using SuiteParam =
    std::tuple<PartitionTreeKind, simd::Metric, Shape, std::size_t>;

class ExactTreeSuite : public ::testing::TestWithParam<SuiteParam> {};

TEST_P(ExactTreeSuite, MatchesBruteForceInIdsAndDistanceBits) {
  const auto [rule, metric, shape, n] = GetParam();
  const auto w = make_shape(shape, n);
  const ExactTreeIndex index(&w.base, metric, rule);
  EXPECT_EQ(index.size(), n);
  for (const std::size_t k : {std::size_t{1}, std::size_t{10}, n + 5}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_brute_force(index, w, k, metric);
  }
}

std::string suite_name(const ::testing::TestParamInfo<SuiteParam>& info) {
  const auto [rule, metric, shape, n] = info.param;
  const char* shapes[] = {"Sift", "Dup", "ConstAxis", "Uniform2d"};
  return std::string(rule == PartitionTreeKind::kVpTree ? "Vp" : "Kd") +
         (metric == simd::Metric::kL2 ? "L2" : "L1") + shapes[int(shape)] +
         "N" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    All, ExactTreeSuite,
    ::testing::Combine(::testing::Values(PartitionTreeKind::kVpTree,
                                         PartitionTreeKind::kKdTree),
                       ::testing::Values(simd::Metric::kL2, simd::Metric::kL1),
                       ::testing::Values(Shape::kSiftLike,
                                         Shape::kDuplicatedRows,
                                         Shape::kConstantAxis,
                                         Shape::kUniform2d),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{17},
                                         std::size_t{600})),
    suite_name);

TEST(ExactTree, LeavesHoldAtMostBucketRows) {
  auto w = data::make_sift_like(1000, 1, 1102);
  for (const auto rule : {PartitionTreeKind::kVpTree, PartitionTreeKind::kKdTree}) {
    const auto built =
        PartitionTree::build_buckets(w.base, simd::Metric::kL2, rule);
    EXPECT_EQ(built.tree.n_partitions(), 63u);  // ceil(1000 / 16)
    for (const std::size_t s : built.partition_sizes) {
      EXPECT_GE(s, 15u);
      EXPECT_LE(s, kBucketRows);
    }
  }
}

// ---- ported from the one-point-per-node VP tree's suite (VP rule) -------

TEST(ExactVpTree, ExactOnSiftLike) {
  auto w = data::make_sift_like(1500, 30, 31);
  ExactTreeIndex tree(&w.base, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto res = tree.search_exact(w.queries.row(q), 10);
    ASSERT_EQ(res.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id) << "query " << q << " pos " << i;
      EXPECT_NEAR(res[i].dist, gt[q][i].dist, 1e-4f);
    }
  }
}

TEST(ExactVpTree, ExactUnderL1) {
  auto w = data::make_deep_like(800, 20, 32);
  ExactTreeIndex tree(&w.base, simd::Metric::kL1, PartitionTreeKind::kVpTree);
  auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL1);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto res = tree.search_exact(w.queries.row(q), 5);
    ASSERT_EQ(res.size(), 5u);
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].id, gt[q][i].id);
    }
  }
}

TEST(ExactVpTree, RejectsNonMetric) {
  data::Dataset d(10, 4);
  for (const auto rule : {PartitionTreeKind::kVpTree, PartitionTreeKind::kKdTree}) {
    EXPECT_THROW(ExactTreeIndex(&d, simd::Metric::kInnerProduct, rule), Error);
  }
}

TEST(ExactVpTree, EmptyDataset) {
  data::Dataset d(0, 4);
  ExactTreeIndex tree(&d, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  float q[4] = {};
  std::size_t evals = 99;
  EXPECT_TRUE(tree.search_exact(q, 3, &evals).empty());
  EXPECT_EQ(evals, 0u);
}

TEST(ExactVpTree, SinglePoint) {
  data::Dataset d(1, 2);
  d.row(0)[0] = 5.f;
  ExactTreeIndex tree(&d, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  float q[2] = {5.f, 0.f};
  auto res = tree.search_exact(q, 4);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 0u);
}

TEST(ExactVpTree, PruningBeatsLinearScanOnClusteredData) {
  // On well-clustered data the triangle-inequality pruning must skip a
  // meaningful share of the dataset.
  auto w = data::make_syn(2000, 16, 0, 20, 34);
  ExactTreeIndex tree(&w.base, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  std::size_t total_evals = 0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    std::size_t evals = 0;
    (void)tree.search_exact(w.queries.row(q), 1, &evals);
    total_evals += evals;
  }
  const double mean_evals = double(total_evals) / double(w.queries.size());
  EXPECT_LT(mean_evals, 0.8 * double(w.base.size()));
}

TEST(ExactVpTree, KLargerThanDatasetReturnsAll) {
  auto w = data::make_sift_like(20, 3, 35);
  ExactTreeIndex tree(&w.base, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  std::size_t evals = 0;
  auto res = tree.search_exact(w.queries.row(0), 50, &evals);
  EXPECT_EQ(res.size(), 20u);
  // Every row scanned exactly once, plus the root's vantage distance (two
  // leaves of 10 rows).
  EXPECT_EQ(evals, 21u);
}

TEST(ExactVpTree, SplitRuleDoesNotChangeResults) {
  // Tree shape must not change *results* (only pruning): the VP and KD rules
  // build different trees over the same rows.
  auto w = data::make_deep_like(500, 10, 36);
  ExactTreeIndex vp(&w.base, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  ExactTreeIndex kd(&w.base, simd::Metric::kL2, PartitionTreeKind::kKdTree);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(vp.search_exact(w.queries.row(q), 8),
              kd.search_exact(w.queries.row(q), 8));
  }
}

TEST(ExactVpTree, DuplicateHeavyDataExactSearch) {
  data::Dataset d(100, 2);
  for (std::size_t i = 0; i < 50; ++i) d.row(i)[0] = 1.f;   // 50 dups
  for (std::size_t i = 50; i < 100; ++i) d.row(i)[0] = float(i);
  ExactTreeIndex tree(&d, simd::Metric::kL2, PartitionTreeKind::kVpTree);
  float q[2] = {1.f, 0.f};
  auto res = tree.search_exact(q, 50);
  ASSERT_EQ(res.size(), 50u);
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_EQ(res[i].dist, 0.f);
    EXPECT_EQ(res[i].id, i);  // ties resolve on id, as brute force does
  }
}

}  // namespace
}  // namespace annsim::vptree
