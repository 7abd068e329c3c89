#pragma once
/// \file partition_tree.hpp
/// \brief The master's routing structure: a binary tree whose *leaves are
/// data partitions* (one per processing core), used to compute F(q) — the
/// subset of partitions whose local results suffice to reconstruct the
/// global k-NN (§III-B, §IV).
///
/// One class serves both routers Table III compares. Every inner node
/// measures one value t of the query and splits at its median mu:
///   - a VP node (the paper's router) measures t = dist(q, vantage point);
///   - a KD node (the PANDA baseline's router) measures t = q[axis].
/// The routing rules are the same for both: route_nearest goes left iff
/// t < mu; route_ball(r) visits the left child iff t - r <= mu and the right
/// one iff t + r >= mu; route_topk bounds the far side below by |t - mu|,
/// which is a lower bound for both split rules under L2 and L1.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "annsim/common/rng.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::vptree {

/// The split rule a built tree's inner nodes use.
enum class PartitionTreeKind : std::uint8_t {
  kVpTree = 0,  ///< vantage point + median radius (the paper's router)
  kKdTree = 1,  ///< widest coordinate + median value (PANDA's router)
};

struct PartitionTreeParams {
  /// Number of leaf partitions; must be a power of two (median splits halve
  /// the data, matching the paper's "half the processes build each child").
  std::size_t target_partitions = 8;
  /// Vantage-point candidates sampled per node (paper: 100). VP only.
  std::size_t vantage_candidates = 100;
  /// Evaluation rows sampled per candidate scoring pass. VP only.
  std::size_t vantage_sample = 256;
  std::uint64_t seed = 11;
  simd::Metric metric = simd::Metric::kL2;
};

/// Per-query routing decision, ordered most-promising first.
struct RoutingDecision {
  std::vector<PartitionId> partitions;
  /// Lower bound on the distance from the query to any point of each
  /// routed partition (same order as `partitions`).
  std::vector<float> lower_bounds;
};

struct PartitionBuildResult;

class PartitionTree {
 public:
  /// Sequential construction with `kind`'s split rule. The distributed VP
  /// builder in annsim::core must produce an equivalent tree; tests compare
  /// the two.
  static PartitionBuildResult build(const data::Dataset& data,
                                    const PartitionTreeParams& params,
                                    PartitionTreeKind kind = PartitionTreeKind::kVpTree);

  /// All partitions whose region intersects ball(query, radius) — the exact
  /// F(q) when `radius` is (an upper bound on) the k-th neighbor distance.
  [[nodiscard]] std::vector<PartitionId> route_ball(const float* query,
                                                    float radius) const;

  /// The single partition whose region contains the query.
  [[nodiscard]] PartitionId route_nearest(const float* query) const;

  /// Up to `max_partitions` partitions ordered by ascending lower-bound
  /// distance to the query (best-first traversal). This is the single-pass
  /// F(q) heuristic used in the throughput-oriented batched search; the
  /// number of probes trades recall for time exactly like IVF nprobe.
  [[nodiscard]] RoutingDecision route_topk(const float* query,
                                           std::size_t max_partitions) const;

  [[nodiscard]] std::size_t n_partitions() const noexcept { return n_partitions_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] simd::Metric metric() const noexcept { return params_.metric; }
  [[nodiscard]] const PartitionTreeParams& params() const noexcept { return params_; }

  /// Tree depth (root=0 depth of deepest leaf).
  [[nodiscard]] std::size_t depth() const;

  void serialize(BinaryWriter& w) const;
  /// Throws annsim::Error on any image the constructor would reject.
  static PartitionTree deserialize(BinaryReader& r);

  /// Internal node layout, exposed for the distributed builder in
  /// annsim::core which assembles a tree from per-level broadcast results.
  struct Node {
    std::vector<float> vp;        ///< vantage point; empty on KD nodes and leaves
    std::uint32_t axis = 0;       ///< split coordinate of a KD node
    float mu = 0.f;               ///< median of the split value t
    std::int32_t left = -1;       ///< child node index, -1 for leaf
    std::int32_t right = -1;
    PartitionId leaf = kInvalidPartition;  ///< set when this node is a leaf

    /// The value t this node splits on: the distance to the vantage point,
    /// or the query's coordinate on a KD node.
    [[nodiscard]] float split_value(const float* x,
                                    const simd::DistanceComputer& dist) const {
      return vp.empty() ? x[axis] : dist(x, vp.data());
    }
  };

  /// Assemble a router from nodes; node 0 is the root. Throws annsim::Error
  /// unless the nodes form a tree with `n_partitions` leaves numbered
  /// 0..n_partitions-1 whose every inner node splits on a `dim`-d vantage
  /// point or a coordinate below `dim`, with children after their parent.
  PartitionTree(std::vector<Node> nodes, std::size_t n_partitions,
                std::size_t dim, PartitionTreeParams params);

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }

 private:
  std::vector<Node> nodes_;
  std::size_t n_partitions_ = 0;
  std::size_t dim_ = 0;
  PartitionTreeParams params_;
};

/// Result of building: the router plus each row's partition assignment.
struct PartitionBuildResult {
  PartitionTree tree;
  std::vector<PartitionId> assignment;  ///< per dataset row
  std::vector<std::size_t> partition_sizes;
};

}  // namespace annsim::vptree
