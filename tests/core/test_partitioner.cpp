#include "annsim/core/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

TEST(Exscan, PrefixAndTotal) {
  mpi::Runtime rt(4);
  rt.run([&](mpi::Comm& c) {
    std::uint64_t total = 0;
    const auto prefix =
        exscan_u64(c, std::uint64_t(c.rank() + 1), &total);
    // values 1,2,3,4 -> prefixes 0,1,3,6; total 10
    const std::uint64_t want[] = {0, 1, 3, 6};
    EXPECT_EQ(prefix, want[c.rank()]);
    EXPECT_EQ(total, 10u);
  });
}

TEST(Exscan, WithoutTotal) {
  mpi::Runtime rt(3);
  rt.run([&](mpi::Comm& c) {
    const auto prefix = exscan_u64(c, 5);
    EXPECT_EQ(prefix, std::uint64_t(c.rank()) * 5);
  });
}

TEST(DistributedMedian, MatchesSequentialMedian) {
  Rng rng(17);
  std::vector<float> all;
  for (int i = 0; i < 4001; ++i) all.push_back(float(rng.normal()));

  std::vector<float> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  const float expected = sorted[(sorted.size() - 1) / 2];

  mpi::Runtime rt(8);
  rt.run([&](mpi::Comm& c) {
    // Deal values round-robin (uneven: rank 0 gets one extra).
    std::vector<float> mine;
    for (std::size_t i = std::size_t(c.rank()); i < all.size(); i += 8) {
      mine.push_back(all[i]);
    }
    const float med = distributed_median(c, std::move(mine));
    EXPECT_FLOAT_EQ(med, expected);
  });
}

TEST(DistributedMedian, HandlesDuplicateHeavyData) {
  mpi::Runtime rt(4);
  rt.run([&](mpi::Comm& c) {
    // 400 copies of 1.0 and 2.0 each, plus one 3.0: median is between...
    // lower median of 801 values = index 400 -> value 2.0? sorted:
    // 400x1.0 then 400x2.0 then 3.0 -> index 400 is the first 2.0.
    std::vector<float> mine;
    for (int i = 0; i < 100; ++i) {
      mine.push_back(1.0f);
      mine.push_back(2.0f);
    }
    if (c.rank() == 0) mine.push_back(3.0f);
    const float med = distributed_median(c, std::move(mine));
    EXPECT_FLOAT_EQ(med, 2.0f);
  });
}

TEST(DistributedMedian, SomeRanksEmpty) {
  mpi::Runtime rt(4);
  rt.run([&](mpi::Comm& c) {
    std::vector<float> mine;
    if (c.rank() == 2) mine = {5.f, 1.f, 9.f};
    const float med = distributed_median(c, std::move(mine));
    EXPECT_FLOAT_EQ(med, 5.f);
  });
}

TEST(DistributedMedian, SingleRank) {
  mpi::Runtime rt(1);
  rt.run([&](mpi::Comm& c) {
    EXPECT_FLOAT_EQ(distributed_median(c, {3.f, 1.f, 2.f}), 2.f);
    EXPECT_FLOAT_EQ(distributed_median(c, {4.f, 1.f, 3.f, 2.f}), 2.f);
  });
}

class DistributedBuild : public ::testing::TestWithParam<int> {};

TEST_P(DistributedBuild, PartitionsAreDisjointCompleteAndBalanced) {
  const int P = GetParam();
  auto w = data::make_sift_like(std::size_t(P) * 100, 5, 81);
  PartitionerConfig cfg;
  cfg.vantage_candidates = 16;
  cfg.vantage_sample = 64;

  std::vector<data::Dataset> partitions(static_cast<std::size_t>(P));
  std::vector<std::byte> tree_bytes;
  mpi::Runtime rt(P);
  rt.run([&](mpi::Comm& c) {
    const auto w_rank = std::size_t(c.rank());
    data::Dataset slice = w.base.slice(w_rank * w.base.size() / std::size_t(P),
                                       (w_rank + 1) * w.base.size() / std::size_t(P));
    auto res = build_distributed_vp_tree(c, std::move(slice), cfg,
                                         simd::Metric::kL2);
    EXPECT_EQ(res.partition_id, PartitionId(c.rank()));
    EXPECT_GT(res.build_seconds, 0.0);
    partitions[w_rank] = std::move(res.partition);
    if (c.rank() == 0) tree_bytes = std::move(res.serialized_tree);
  });

  // Disjoint + complete: every global id appears exactly once.
  std::set<GlobalId> seen;
  std::size_t total = 0;
  for (const auto& p : partitions) {
    total += p.size();
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_TRUE(seen.insert(p.id(i)).second) << "duplicate id " << p.id(i);
    }
  }
  EXPECT_EQ(total, w.base.size());

  // Balanced: median splits keep sizes within a small band.
  const auto [lo, hi] = std::minmax_element(
      partitions.begin(), partitions.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  EXPECT_LE(hi->size() - lo->size(), std::size_t(P));

  // The serialized tree exists on rank 0 and routes consistently.
  ASSERT_FALSE(tree_bytes.empty());
  BinaryReader rd(tree_bytes);
  auto tree = vptree::PartitionTree::deserialize(rd);
  EXPECT_EQ(tree.n_partitions(), std::size_t(P));
}

INSTANTIATE_TEST_SUITE_P(Ps, DistributedBuild, ::testing::Values(1, 2, 4, 8, 16));

TEST(DistributedBuildTree, RoutesPointsToTheirPartition) {
  const int P = 8;
  auto w = data::make_sift_like(1600, 5, 82);
  PartitionerConfig cfg;
  cfg.vantage_candidates = 16;
  cfg.vantage_sample = 64;

  std::vector<data::Dataset> partitions(P);
  std::vector<std::byte> tree_bytes;
  mpi::Runtime rt(P);
  rt.run([&](mpi::Comm& c) {
    const auto w_rank = std::size_t(c.rank());
    data::Dataset slice = w.base.slice(w_rank * w.base.size() / P,
                                       (w_rank + 1) * w.base.size() / P);
    auto res = build_distributed_vp_tree(c, std::move(slice), cfg,
                                         simd::Metric::kL2);
    partitions[w_rank] = std::move(res.partition);
    if (c.rank() == 0) tree_bytes = std::move(res.serialized_tree);
  });

  BinaryReader rd(tree_bytes);
  auto tree = vptree::PartitionTree::deserialize(rd);

  // Map global id -> owning partition.
  std::vector<PartitionId> owner(w.base.size(), kInvalidPartition);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t i = 0; i < partitions[p].size(); ++i) {
      owner[partitions[p].id(i)] = PartitionId(p);
    }
  }
  // The assembled router must send (almost) every base point to the
  // partition that physically holds it (ties at sphere boundaries excepted).
  std::size_t agree = 0;
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    if (tree.route_nearest(w.base.row(i)) == owner[i]) ++agree;
  }
  EXPECT_GE(agree, w.base.size() * 97 / 100);
}

TEST(DistributedBuildTree, SufficientRoutingForTrueNeighbors) {
  const int P = 8;
  auto w = data::make_sift_like(1200, 20, 83);
  PartitionerConfig cfg;
  cfg.vantage_candidates = 16;
  cfg.vantage_sample = 64;

  std::vector<data::Dataset> partitions(P);
  std::vector<std::byte> tree_bytes;
  mpi::Runtime rt(P);
  rt.run([&](mpi::Comm& c) {
    const auto w_rank = std::size_t(c.rank());
    data::Dataset slice = w.base.slice(w_rank * w.base.size() / P,
                                       (w_rank + 1) * w.base.size() / P);
    auto res = build_distributed_vp_tree(c, std::move(slice), cfg,
                                         simd::Metric::kL2);
    partitions[w_rank] = std::move(res.partition);
    if (c.rank() == 0) tree_bytes = std::move(res.serialized_tree);
  });
  BinaryReader rd(tree_bytes);
  auto tree = vptree::PartitionTree::deserialize(rd);

  std::vector<PartitionId> owner(w.base.size(), kInvalidPartition);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t i = 0; i < partitions[p].size(); ++i) {
      owner[partitions[p].id(i)] = PartitionId(p);
    }
  }

  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  std::size_t covered = 0, total = 0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    auto parts = tree.route_ball(w.queries.row(q),
                                 gt[q].back().dist * (1.f + 1e-5f));
    std::set<PartitionId> visited(parts.begin(), parts.end());
    for (const auto& nb : gt[q]) {
      ++total;
      if (visited.contains(owner[nb.id])) ++covered;
    }
  }
  // Boundary ties may strand the odd point on the other side of a sphere;
  // coverage must still be essentially complete.
  EXPECT_GE(double(covered) / double(total), 0.99);
}

TEST(DistributedBuild, RejectsNonPowerOfTwoWorkers) {
  auto w = data::make_sift_like(300, 1, 84);
  mpi::Runtime rt(3);
  EXPECT_THROW(rt.run([&](mpi::Comm& c) {
    data::Dataset slice = w.base.slice(std::size_t(c.rank()) * 100,
                                       std::size_t(c.rank() + 1) * 100);
    (void)build_distributed_vp_tree(c, std::move(slice), {},
                                    simd::Metric::kL2);
  }),
               Error);
}

TEST(DistributedBuild, DeterministicAcrossRuns) {
  const int P = 4;
  auto w = data::make_sift_like(800, 1, 85);
  PartitionerConfig cfg;
  cfg.vantage_candidates = 8;
  cfg.vantage_sample = 32;

  auto run_once = [&] {
    std::vector<std::vector<GlobalId>> ids(P);
    mpi::Runtime rt(P);
    rt.run([&](mpi::Comm& c) {
      const auto w_rank = std::size_t(c.rank());
      data::Dataset slice = w.base.slice(w_rank * w.base.size() / P,
                                         (w_rank + 1) * w.base.size() / P);
      auto res = build_distributed_vp_tree(c, std::move(slice), cfg,
                                         simd::Metric::kL2);
      std::vector<GlobalId> mine(res.partition.ids().begin(),
                                 res.partition.ids().end());
      std::sort(mine.begin(), mine.end());
      ids[w_rank] = std::move(mine);
    });
    return ids;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace annsim::core
