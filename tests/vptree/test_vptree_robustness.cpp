/// Robustness of the VP-tree structures: serialization error handling,
/// degenerate geometries, and routing consistency under duplicates.

#include <gtest/gtest.h>

#include "annsim/common/error.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/vptree/partition_tree.hpp"
#include "annsim/vptree/vp_tree.hpp"

namespace annsim::vptree {
namespace {

PartitionTreeParams params(std::size_t parts) {
  PartitionTreeParams p;
  p.target_partitions = parts;
  p.vantage_candidates = 8;
  p.vantage_sample = 32;
  return p;
}

TEST(VpTreeRobustness, DeserializeRejectsBadMagic) {
  BinaryWriter w;
  w.write(std::uint32_t{0xDEADBEEF});
  auto bytes = w.take();
  BinaryReader r(bytes);
  EXPECT_THROW((void)PartitionTree::deserialize(r), Error);
}

TEST(VpTreeRobustness, DeserializeRejectsTruncated) {
  auto w = data::make_sift_like(256, 1, 701);
  auto built = PartitionTree::build(w.base, params(4));
  BinaryWriter wtr;
  built.tree.serialize(wtr);
  auto bytes = wtr.take();
  bytes.resize(bytes.size() / 3);
  BinaryReader r(bytes);
  EXPECT_THROW((void)PartitionTree::deserialize(r), Error);
}

TEST(VpTreeRobustness, AllDuplicatePointsStillPartition) {
  // Every point identical: distances all zero, median zero — the split must
  // still terminate and produce the requested partition count.
  data::Dataset d(64, 4);
  for (std::size_t i = 0; i < d.size(); ++i) d.row(i)[0] = 3.f;
  auto built = PartitionTree::build(d, params(4));
  EXPECT_EQ(built.tree.n_partitions(), 4u);
  std::size_t total = 0;
  for (auto s : built.partition_sizes) total += s;
  EXPECT_EQ(total, 64u);
}

TEST(VpTreeRobustness, DuplicateHeavyDataExactSearch) {
  data::Dataset d(100, 2);
  for (std::size_t i = 0; i < 50; ++i) d.row(i)[0] = 1.f;   // 50 dups
  for (std::size_t i = 50; i < 100; ++i) d.row(i)[0] = float(i);
  VpTree tree(&d, {});
  float q[2] = {1.f, 0.f};
  auto res = tree.search(q, 50);
  ASSERT_EQ(res.size(), 50u);
  for (const auto& nb : res) EXPECT_NEAR(nb.dist, 0.f, 1e-6f);
}

TEST(VpTreeRobustness, RouteBallZeroRadiusHitsContainingPartition) {
  auto w = data::make_sift_like(512, 1, 702);
  auto built = PartitionTree::build(w.base, params(8));
  for (std::size_t i = 0; i < 64; ++i) {
    auto parts = built.tree.route_ball(w.base.row(i), 0.f);
    ASSERT_GE(parts.size(), 1u);
    // The zero-radius ball must include the partition route_nearest picks.
    const auto nearest = built.tree.route_nearest(w.base.row(i));
    EXPECT_NE(std::find(parts.begin(), parts.end(), nearest), parts.end());
  }
}

TEST(VpTreeRobustness, ExtremeAspectData) {
  // One dominant coordinate: vantage spheres become shells along a line.
  data::Dataset d(256, 8);
  Rng rng(703);
  for (std::size_t i = 0; i < d.size(); ++i) {
    d.row(i)[0] = float(i) * 100.f;
    for (std::size_t j = 1; j < 8; ++j) d.row(i)[j] = rng.uniformf();
  }
  auto built = PartitionTree::build(d, params(8));
  // Routing a base point with a small ball must stay selective.
  std::size_t total = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    total += built.tree.route_ball(d.row(i * 4), 50.f).size();
  }
  EXPECT_LT(double(total) / 64.0, 3.0);
}

TEST(VpTreeRobustness, MinimumViableDataset) {
  // Exactly 2 points per partition, the constructor's lower bound.
  data::Dataset d(8, 3);
  Rng rng(704);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) d.row(i)[j] = float(rng.normal());
  }
  auto built = PartitionTree::build(d, params(4));
  EXPECT_EQ(built.tree.n_partitions(), 4u);
  for (auto s : built.partition_sizes) EXPECT_EQ(s, 2u);
}

TEST(VpTreeRobustness, BuildRejectsTooFewPoints) {
  data::Dataset d(3, 2);
  EXPECT_THROW((void)PartitionTree::build(d, params(4)), Error);
}

TEST(VpTreeRobustness, NodesExposedForDistributedAssembly) {
  auto w = data::make_sift_like(256, 1, 705);
  auto built = PartitionTree::build(w.base, params(4));
  const auto& nodes = built.tree.nodes();
  EXPECT_EQ(nodes.size(), 7u);  // 3 internal + 4 leaves
  std::size_t leaves = 0, internals = 0;
  for (const auto& n : nodes) {
    if (n.leaf != kInvalidPartition) {
      ++leaves;
      EXPECT_EQ(n.left, -1);
      EXPECT_EQ(n.right, -1);
    } else {
      ++internals;
      EXPECT_EQ(n.vp.size(), w.base.dim());
      EXPECT_GE(n.mu, 0.f);
    }
  }
  EXPECT_EQ(leaves, 4u);
  EXPECT_EQ(internals, 3u);
}

}  // namespace
}  // namespace annsim::vptree
