/// \file test_hnsw_flat.cpp
/// \brief Differential suite for the frozen FlatGraph representation: the
/// read-optimized search path (CSR slab, batched kernels, deferred sqrt) must
/// be bit-identical to the mutable linked-graph path under both of its
/// adjacency accessors (locked while inserts may run, in place once
/// complete), and serialization must round-trip through the flat form
/// losslessly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"

namespace annsim::hnsw {
namespace {

HnswParams test_params(simd::Metric metric) {
  HnswParams p;
  p.M = 10;
  p.ef_construction = 60;
  p.ef_search = 48;
  p.seed = 4242;
  p.metric = metric;
  return p;
}

/// Builds the same graph twice: once via build() (which freezes into the
/// flat form) and once via a manual insert loop (which stays on the mutable
/// linked form). Identical params + seed + single-threaded insertion order
/// give identical graphs, so any search divergence is a bug in the flat path.
struct GraphPair {
  HnswIndex frozen;
  HnswIndex linked;

  GraphPair(const data::Dataset& base, simd::Metric metric)
      : frozen(&base, test_params(metric)), linked(&base, test_params(metric)) {
    frozen.build();  // single-threaded: deterministic insertion order
    for (std::size_t i = 0; i < base.size(); ++i) linked.insert(LocalId(i));
  }
};

void expect_identical_results(const std::vector<Neighbor>& a,
                              const std::vector<Neighbor>& b,
                              const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " pos " << i;
    EXPECT_EQ(a[i].dist, b[i].dist) << what << " pos " << i;  // bit-identical
  }
}

class FlatDifferential : public ::testing::TestWithParam<simd::Metric> {};

TEST_P(FlatDifferential, FlatSearchBitIdenticalToLinked) {
  const auto metric = GetParam();
  auto w = data::make_sift_like(1200, 40, 31);
  GraphPair pair(w.base, metric);
  ASSERT_TRUE(pair.frozen.is_frozen());
  ASSERT_FALSE(pair.linked.is_frozen());

  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    for (std::size_t ef : {std::size_t(10), std::size_t(48), std::size_t(96)}) {
      auto rf = pair.frozen.search(w.queries.row(q), 10, ef);
      auto rl = pair.linked.search(w.queries.row(q), 10, ef);
      expect_identical_results(rf, rl, simd::metric_name(metric));
    }
  }
}

TEST_P(FlatDifferential, FreezingTheLinkedGraphChangesNothing) {
  const auto metric = GetParam();
  auto w = data::make_deep_like(600, 20, 17);
  GraphPair pair(w.base, metric);

  std::vector<std::vector<Neighbor>> before;
  for (std::size_t q = 0; q < w.queries.size(); ++q)
    before.push_back(pair.linked.search(w.queries.row(q), 8));

  pair.linked.freeze();
  EXPECT_TRUE(pair.linked.is_frozen());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto after = pair.linked.search(w.queries.row(q), 8);
    expect_identical_results(before[q], after, simd::metric_name(metric));
  }
}

TEST_P(FlatDifferential, BytesRoundTripPreservesResults) {
  const auto metric = GetParam();
  auto w = data::make_sift_like(800, 25, 53);
  HnswIndex index(&w.base, test_params(metric));
  index.build();

  auto bytes = index.to_bytes();
  auto restored = HnswIndex::from_bytes(bytes, &w.base);
  EXPECT_TRUE(restored.is_frozen());
  EXPECT_EQ(restored.size(), index.size());

  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto r0 = index.search(w.queries.row(q), 10);
    auto r1 = restored.search(w.queries.row(q), 10);
    expect_identical_results(r0, r1, simd::metric_name(metric));
  }
  // A second freeze-serialize cycle must be byte-stable.
  EXPECT_EQ(restored.to_bytes(), bytes);
}

TEST_P(FlatDifferential, LockedLinkedSearchBitIdenticalToFrozen) {
  // Half the rows inserted into an index over all of them: search reads the
  // linked graph through the locked accessor (n_inserted < size). Levels
  // depend only on seed and node id, so the graph equals the one built over
  // just that half.
  const auto metric = GetParam();
  auto w = data::make_sift_like(1200, 40, 37);
  const std::size_t half = w.base.size() / 2;
  HnswIndex partial(&w.base, test_params(metric));
  for (std::size_t i = 0; i < half; ++i) partial.insert(LocalId(i));
  ASSERT_FALSE(partial.is_frozen());
  ASSERT_LT(partial.size(), w.base.size());

  const auto head = w.base.slice(0, half);
  HnswIndex frozen(&head, test_params(metric));
  frozen.build();
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    for (std::size_t ef : {std::size_t(10), std::size_t(48), std::size_t(96)}) {
      auto rl = partial.search(w.queries.row(q), 10, ef);
      auto rf = frozen.search(w.queries.row(q), 10, ef);
      expect_identical_results(rf, rl, simd::metric_name(metric));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, FlatDifferential,
                         ::testing::Values(simd::Metric::kL2, simd::Metric::kL1,
                                           simd::Metric::kInnerProduct,
                                           simd::Metric::kCosine),
                         [](const auto& param_info) {
                           return std::string(simd::metric_name(param_info.param));
                         });

TEST(HnswFlat, BuildFreezesAndInsertThrows) {
  auto w = data::make_sift_like(200, 5, 7);
  HnswIndex index(&w.base, test_params(simd::Metric::kL2));
  EXPECT_FALSE(index.is_frozen());
  index.build();
  EXPECT_TRUE(index.is_frozen());
  EXPECT_THROW(index.insert(0), Error);
}

TEST(HnswFlat, FreezeIsIdempotent) {
  auto w = data::make_sift_like(300, 5, 9);
  HnswIndex index(&w.base, test_params(simd::Metric::kL2));
  index.build();
  auto before = index.search(w.queries.row(0), 5);
  index.freeze();  // second call: no-op
  index.freeze();
  auto after = index.search(w.queries.row(0), 5);
  expect_identical_results(before, after, "idempotent freeze");
}

TEST(HnswFlat, EmptyIndexFreezesCleanly) {
  data::Dataset d(0, 8);
  HnswIndex index(&d, test_params(simd::Metric::kL2));
  index.build();
  EXPECT_TRUE(index.is_frozen());
  float q[8] = {};
  EXPECT_TRUE(index.search(q, 3).empty());
}

TEST(HnswFlat, StatsAgreeAcrossRepresentations) {
  auto w = data::make_sift_like(700, 5, 23);
  GraphPair pair(w.base, simd::Metric::kL2);
  const auto sf = pair.frozen.stats();
  const auto sl = pair.linked.stats();
  EXPECT_EQ(sf.n_nodes, sl.n_nodes);
  EXPECT_EQ(sf.max_level, sl.max_level);
  EXPECT_EQ(sf.nodes_per_level, sl.nodes_per_level);
  EXPECT_DOUBLE_EQ(sf.avg_degree_level0, sl.avg_degree_level0);
}

TEST(HnswFlat, ImageRoundTripThroughFlatForm) {
  auto w = data::make_sift_like(500, 10, 41);
  HnswIndex index(&w.base, test_params(simd::Metric::kL2));
  index.build();

  auto loaded = HnswIndex::from_bytes(index.to_bytes(), &w.base);

  EXPECT_TRUE(loaded.is_frozen());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto r0 = index.search(w.queries.row(q), 10);
    auto r1 = loaded.search(w.queries.row(q), 10);
    expect_identical_results(r0, r1, "save/load");
  }
}

}  // namespace
}  // namespace annsim::hnsw
