/// \file test_partition_tree_fuzz.cpp
/// \brief Corrupt partition-tree images are rejected with a typed error.
/// The engine manifest is checksummed, but the decoder may not rely on it:
/// every byte of the router's image reaches PartitionTree::deserialize.
/// Each mutant must either throw annsim::Error or decode to a tree that
/// routes clean (the sanitizer jobs check "clean"), and every tree it
/// accepts is a proper tree over all partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::vptree {
namespace {

constexpr std::size_t kRows = 256;
constexpr std::size_t kDim = 16;
constexpr std::size_t kParts = 4;  // 7 nodes: 0, 1, 4 inner; 2, 3, 5, 6 leaves

data::Dataset random_rows(std::size_t n, std::uint64_t seed) {
  data::Dataset d(n, kDim);
  Rng rng(seed);
  std::vector<float> row(kDim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : row) x = float(rng.normal());
    d.set_row(i, row);
  }
  return d;
}

struct Fixture {
  data::Dataset base = random_rows(kRows, 21);
  data::Dataset queries = random_rows(4, 22);

  [[nodiscard]] PartitionTree tree(PartitionTreeKind kind) const {
    PartitionTreeParams p;
    p.target_partitions = kParts;
    p.vantage_candidates = 8;
    p.vantage_sample = 32;
    return PartitionTree::build(base, p, kind).tree;
  }
};

std::vector<std::byte> image_of(const PartitionTree& tree) {
  BinaryWriter w;
  tree.serialize(w);
  return w.take();
}

// Image layout: magic u32, n_partitions u64, dim u64, metric i32,
// vantage_candidates u64, vantage_sample u64, seed u64, node count u64; then
// per node a u64-prefixed vantage point and axis u32, mu f32, left i32,
// right i32, leaf u32.
constexpr std::size_t kPartsAt = 4;
constexpr std::size_t kDimAt = 12;
constexpr std::size_t kMetricAt = 20;
constexpr std::size_t kNodeCountAt = 48;
constexpr std::size_t kNodesAt = 56;
constexpr std::size_t kAxis = 0, kLeft = 8, kRight = 12, kLeaf = 16;

/// Byte offset of node `i`'s field at `field` (one of kAxis..kLeaf).
std::size_t field_at(const PartitionTree& tree, std::size_t i,
                     std::size_t field) {
  std::size_t at = kNodesAt;
  for (std::size_t j = 0; j < i; ++j) at += 28 + 4 * tree.nodes()[j].vp.size();
  return at + 8 + 4 * tree.nodes()[i].vp.size() + field;
}

template <typename T>
void put(std::vector<std::byte>& bytes, std::size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// Decode and route every query the way the engine does (it checks the
/// query dim against the router first). An accepted tree must be a proper
/// tree: best-first routing reaches every partition exactly once.
void route_or_throw(std::span<const std::byte> bytes, const Fixture& f) {
  BinaryReader r(bytes);
  const PartitionTree tree = PartitionTree::deserialize(r);
  ANNSIM_CHECK(tree.dim() == f.queries.dim());
  for (std::size_t q = 0; q < f.queries.size(); ++q) {
    const float* query = f.queries.row(q);
    (void)tree.route_nearest(query);
    (void)tree.route_ball(query, 1.f);
    (void)tree.route_ball(query, std::numeric_limits<float>::infinity());
    auto all = tree.route_topk(query, tree.n_partitions()).partitions;
    ASSERT_EQ(all.size(), tree.n_partitions());
    std::sort(all.begin(), all.end());
    for (std::size_t p = 0; p < all.size(); ++p) ASSERT_EQ(all[p], p);
  }
}

void expect_rejected(const std::vector<std::byte>& bytes, const Fixture& f,
                     const std::string& message) {
  try {
    route_or_throw(bytes, f);
    ADD_FAILURE() << "accepted a corrupt image; expected \"" << message << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

std::string split_rule_name(
    const ::testing::TestParamInfo<PartitionTreeKind>& param) {
  return param.param == PartitionTreeKind::kVpTree ? "Vp" : "Kd";
}

class PartitionTreeImageFuzz
    : public ::testing::TestWithParam<PartitionTreeKind> {};

TEST_P(PartitionTreeImageFuzz, TargetedCorruptionsThrow) {
  const Fixture f;
  const PartitionTree tree = f.tree(GetParam());
  const auto image = image_of(tree);
  ASSERT_NO_THROW(route_or_throw(image, f));

  auto corrupt = [&](auto mutate, const std::string& message) {
    auto bytes = image;
    mutate(bytes);
    expect_rejected(bytes, f, message);
  };
  // Unknown metric, and a known non-metric.
  corrupt([](auto& b) { put(b, kMetricAt, std::int32_t{99}); }, "true metric");
  corrupt([](auto& b) { put(b, kMetricAt, std::int32_t(simd::Metric::kCosine)); },
          "true metric");
  // Node count other than 2 * n_partitions - 1, and one the image cannot hold.
  corrupt([](auto& b) { put(b, kPartsAt, std::uint64_t{3}); }, "7 nodes for 3");
  corrupt([](auto& b) { put(b, kNodeCountAt, std::uint64_t{1} << 40); },
          "claims");
  // Out-of-range child: caught at its parent, node 0.
  corrupt([&](auto& b) { put(b, field_at(tree, 0, kLeft), std::int32_t{1048576}); },
          "node 0: child 1048576");
  corrupt([&](auto& b) { put(b, field_at(tree, 0, kRight), std::int32_t{-1}); },
          "node 0: child -1");
  // A child at or below its parent: a self loop and a back edge.
  corrupt([&](auto& b) { put(b, field_at(tree, 1, kLeft), std::int32_t{1}); },
          "node 1: child 1");
  corrupt([&](auto& b) { put(b, field_at(tree, 4, kRight), std::int32_t{2}); },
          "node 4: child 2");
  // Leaf ids must be a permutation of [0, n_partitions).
  corrupt([&](auto& b) { put(b, field_at(tree, 3, kLeaf), PartitionId{0}); },
          "node 3: leaf id 0");
  corrupt([&](auto& b) { put(b, field_at(tree, 6, kLeaf), PartitionId{4}); },
          "node 6: leaf id 4");
  // The split measure must fit the tree's dim.
  if (GetParam() == PartitionTreeKind::kVpTree) {
    corrupt([](auto& b) { put(b, kDimAt, std::uint64_t{kDim + 1}); },
            "vantage point has 16 coordinates");
  } else {
    corrupt([&](auto& b) { put(b, field_at(tree, 0, kAxis), std::uint32_t{kDim}); },
            "node 0: split axis 16");
  }
}

TEST_P(PartitionTreeImageFuzz, RandomByteFlipsThrowOrRouteClean) {
  const Fixture f;
  const auto image = image_of(f.tree(GetParam()));
  Rng rng(GetParam() == PartitionTreeKind::kVpTree ? 31 : 32);
  std::size_t rejected = 0;
  constexpr int kMutants = 1500;
  for (int rep = 0; rep < kMutants; ++rep) {
    auto bytes = image;
    const std::size_t flips = 1 + rng.uniform_below(3);
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng.uniform_below(bytes.size())] ^=
          std::byte(1 + rng.uniform_below(255));
    }
    try {
      route_or_throw(bytes, f);
    } catch (const Error&) {
      ++rejected;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Both outcomes occur: flips in the structure are caught, flips in split
  // values and sampling parameters keep the image a valid tree.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, std::size_t(kMutants));
}

INSTANTIATE_TEST_SUITE_P(SplitRules, PartitionTreeImageFuzz,
                         ::testing::Values(PartitionTreeKind::kVpTree,
                                           PartitionTreeKind::kKdTree),
                         split_rule_name);

}  // namespace
}  // namespace annsim::vptree
