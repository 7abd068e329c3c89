#pragma once
/// \file partition_tree.hpp
/// \brief A binary median-split tree over row sets. As the master's router
/// its leaves are *data partitions* (one per processing core) and it computes
/// F(q) — the subset of partitions whose local results suffice to reconstruct
/// the global k-NN (§III-B, §IV). As the exact local index (kExactTree) its
/// leaves are buckets of at most kBucketRows rows, searched best-first.
///
/// One class serves both split rules Table III compares. Every inner node
/// measures one value t of the query and splits at its median mu:
///   - a VP node (the paper's router) measures t = dist(q, vantage point);
///   - a KD node (the PANDA baseline's router) measures t = q[axis].
/// The routing rules are the same for both: route_nearest goes left iff
/// t < mu; route_ball(r) visits the left child iff t - r <= mu and the right
/// one iff t + r >= mu; the best-first walk bounds the far side below by
/// |t - mu|, a lower bound for both split rules under L2 and L1.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
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
  /// Number of leaves; build() needs a power of two (median splits halve
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

/// Rows per leaf of an exact local tree (PartitionTree::build_buckets).
inline constexpr std::size_t kBucketRows = 16;

struct PartitionBuildResult;

class PartitionTree {
 public:
  /// Sequential construction with `kind`'s split rule. The distributed VP
  /// builder in annsim::core must produce an equivalent tree; tests compare
  /// the two.
  static PartitionBuildResult build(const data::Dataset& data,
                                    const PartitionTreeParams& params,
                                    PartitionTreeKind kind = PartitionTreeKind::kVpTree);

  /// The exact local index's tree: ceil(n / kBucketRows) leaves over `data`'s
  /// n >= 1 rows, with `kind`'s split rule. A leaf count that is not a power
  /// of two splits rows in proportion to each side's leaves, so no leaf holds
  /// more than kBucketRows rows. VP nodes sample vantage points with fixed
  /// settings, so replicas rebuild the same tree.
  static PartitionBuildResult build_buckets(const data::Dataset& data,
                                            simd::Metric metric,
                                            PartitionTreeKind kind);

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

  /// The best-first traversal under route_topk and the exact search: calls
  /// `visit(leaf, lower_bound)` on leaves in nondecreasing lower-bound order,
  /// route_nearest's leaf first, until `visit` returns false or every leaf
  /// has been visited. Returns the distance evaluations its VP splits spent.
  template <class Visit>
  std::size_t best_first(const float* query, Visit&& visit) const;

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

template <class Visit>
std::size_t PartitionTree::best_first(const float* query, Visit&& visit) const {
  const simd::DistanceComputer dist(params_.metric, dim_);

  // The bound on a subtree is the lower-bound distance from the query to its
  // region (|t - mu| across the separating sphere or plane). A query exactly
  // on a split (t == mu) bounds both sides at the same value; the side
  // route_nearest does not take is marked and yields that tie.
  struct Entry {
    float lb;
    bool off_nearest;  ///< below a split the query sits exactly on
    std::int32_t node;
  };
  const auto worse = [](const Entry& a, const Entry& b) noexcept {
    // Min-heap on the lower bound; marked entries lose ties.
    return a.lb > b.lb || (a.lb == b.lb && a.off_nearest && !b.off_nearest);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> heap(worse);
  heap.push({0.f, false, 0});
  std::size_t evals = 0;
  while (!heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    const Node& n = nodes_[std::size_t(e.node)];
    if (n.leaf != kInvalidPartition) {
      if (!visit(n.leaf, e.lb)) break;
      continue;
    }
    const float t = n.split_value(query, dist);
    evals += n.vp.empty() ? 0 : 1;
    const float left_lb = t < n.mu ? e.lb : std::max(e.lb, t - n.mu);
    const float right_lb = t >= n.mu ? e.lb : std::max(e.lb, n.mu - t);
    heap.push({left_lb, e.off_nearest || t == n.mu, n.left});
    heap.push({right_lb, e.off_nearest, n.right});
  }
  return evals;
}

}  // namespace annsim::vptree
