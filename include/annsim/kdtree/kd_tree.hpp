#pragma once
/// \file kd_tree.hpp
/// \brief KD-tree: the exact-search baseline family (PANDA, Patwary et al.
/// IPDPS'16) that Table III compares against.
///
/// `KdTree` is the baseline's exact local k-NN index (median split on the
/// widest-spread coordinate, backtracking search). Its partition router is
/// vptree::PartitionTree built with PartitionTreeKind::kKdTree, which splits
/// on the same coordinate: exact global search must visit every partition
/// whose half-space cell intersects the query ball, which is the
/// high-dimensional explosion the paper demonstrates.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::kdtree {

/// The coordinate with the largest value spread over `rows` (sampled) — the
/// classic widest-dimension split rule PANDA uses, shared by KdTree and the
/// KD partition router.
[[nodiscard]] std::uint32_t widest_axis(const data::Dataset& data,
                                        std::span<const std::size_t> rows);

struct KdTreeParams {
  std::size_t leaf_size = 16;  ///< switch to linear scan below this size
  simd::Metric metric = simd::Metric::kL2;  ///< kL2 or kL1 only
};

/// Exact k-NN index over a Dataset (referenced, not owned).
class KdTree {
 public:
  KdTree(const data::Dataset* data, KdTreeParams params);

  /// Exact k-NN; `evals_out` counts distance evaluations when non-null.
  [[nodiscard]] std::vector<Neighbor> search(const float* query, std::size_t k,
                                             std::size_t* evals_out = nullptr) const;

  [[nodiscard]] std::size_t size() const noexcept { return data_->size(); }

 private:
  struct Node {
    std::uint32_t axis = 0;
    float split = 0.f;
    std::int32_t left = -1;    ///< -1 on leaves
    std::int32_t right = -1;
    std::uint32_t begin = 0;   ///< leaf row range into rows_
    std::uint32_t end = 0;
  };

  std::int32_t build(std::size_t begin, std::size_t end);
  void search_node(std::int32_t node, const float* query, class KdTopK& topk) const;

  const data::Dataset* data_;
  KdTreeParams params_;
  simd::DistanceComputer dist_;
  std::vector<std::size_t> rows_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace annsim::kdtree
