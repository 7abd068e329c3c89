#include "annsim/vptree/partition_tree.hpp"

#include <bit>
#include <limits>

#include "annsim/common/error.hpp"
#include "annsim/vptree/vantage.hpp"

namespace annsim::vptree {

namespace {

constexpr std::uint32_t kMagic = 0x50545232;  // "PTR2"

/// The coordinate with the largest value spread over `rows` (sampled) — the
/// classic widest-dimension split rule PANDA uses.
std::uint32_t widest_axis(const data::Dataset& data,
                          std::span<const std::size_t> rows) {
  const std::size_t dim = data.dim();
  std::uint32_t best_axis = 0;
  float best_spread = -1.f;
  for (std::size_t a = 0; a < dim; ++a) {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    // Sample up to 256 rows; exact spread is not needed for a good split.
    const std::size_t step = std::max<std::size_t>(1, rows.size() / 256);
    for (std::size_t i = 0; i < rows.size(); i += step) {
      const float v = data.row(rows[i])[a];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = std::uint32_t(a);
    }
  }
  return best_axis;
}

struct Builder {
  const data::Dataset& data;
  const PartitionTreeParams& params;
  const PartitionTreeKind kind;
  simd::DistanceComputer dist;
  std::vector<PartitionTree::Node> nodes;
  std::vector<PartitionId> assignment;
  PartitionId next_partition = 0;
  Rng rng;

  Builder(const data::Dataset& d, const PartitionTreeParams& p,
          PartitionTreeKind k)
      : data(d),
        params(p),
        kind(k),
        dist(p.metric, d.dim()),
        assignment(d.size(), kInvalidPartition),
        rng(p.seed) {}

  /// Recursively split rows[begin, end) into `parts` partitions.
  std::int32_t build(std::vector<std::size_t>& rows, std::size_t begin,
                     std::size_t end, std::size_t parts) {
    const std::int32_t id = std::int32_t(nodes.size());
    nodes.emplace_back();

    if (parts == 1) {
      nodes[id].leaf = next_partition++;
      for (std::size_t i = begin; i < end; ++i) {
        assignment[rows[i]] = nodes[id].leaf;
      }
      return id;
    }

    ANNSIM_CHECK_MSG(end - begin >= parts,
                     "cannot split " << (end - begin) << " rows into " << parts
                                     << " partitions");
    const std::span<const std::size_t> range(rows.data() + begin, end - begin);
    PartitionTree::Node split;
    if (kind == PartitionTreeKind::kVpTree) {
      const std::size_t vp_row = select_vantage_point_sampled(
          data, range, params.vantage_candidates, params.vantage_sample, dist,
          rng);
      const float* vp = data.row(vp_row);
      split.vp.assign(vp, vp + data.dim());
    } else {
      split.axis = widest_axis(data, range);
    }

    // Median split: left = below the median of t (for VP, inside the
    // vantage sphere — the paper equates the median radius with the
    // equipartitioning sphere). Rows split in proportion to each side's
    // partitions, which is the median when `parts` is a power of two.
    const std::size_t mid = begin + (end - begin) * (parts / 2) / parts;
    std::nth_element(rows.begin() + std::ptrdiff_t(begin),
                     rows.begin() + std::ptrdiff_t(mid),
                     rows.begin() + std::ptrdiff_t(end),
                     [&](std::size_t a, std::size_t b) {
                       return split.split_value(data.row(a), dist) <
                              split.split_value(data.row(b), dist);
                     });
    split.mu = split.split_value(data.row(rows[mid]), dist);

    split.left = build(rows, begin, mid, parts / 2);
    split.right = build(rows, mid, end, parts - parts / 2);
    nodes[id] = std::move(split);
    return id;
  }
};

PartitionBuildResult build_tree(const data::Dataset& data,
                                const PartitionTreeParams& params,
                                PartitionTreeKind kind) {
  ANNSIM_CHECK(data.size() >= params.target_partitions);
  Builder b(data, params, kind);
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  (void)b.build(rows, 0, rows.size(), params.target_partitions);

  PartitionBuildResult result{
      PartitionTree(std::move(b.nodes), params.target_partitions, data.dim(),
                    params),
      std::move(b.assignment),
      {}};
  result.partition_sizes.assign(params.target_partitions, 0);
  for (PartitionId p : result.assignment) {
    ANNSIM_CHECK(p != kInvalidPartition);
    ++result.partition_sizes[p];
  }
  return result;
}

}  // namespace

PartitionTree::PartitionTree(std::vector<Node> nodes, std::size_t n_partitions,
                             std::size_t dim, PartitionTreeParams params)
    : nodes_(std::move(nodes)),
      n_partitions_(n_partitions),
      dim_(dim),
      params_(params) {
  ANNSIM_CHECK_MSG(simd::is_true_metric(params_.metric),
                   "partition routing requires a true metric (L2 or L1)");
  ANNSIM_CHECK_MSG(n_partitions_ >= 1 && n_partitions_ <= kInvalidPartition &&
                       nodes_.size() == 2 * n_partitions_ - 1,
                   "partition tree has " << nodes_.size() << " nodes for "
                                         << n_partitions_ << " partitions");
  // Children after their parent rules out cycles; a single parent per node
  // and one leaf per partition id make the nodes one tree rooted at node 0.
  std::vector<char> has_parent(nodes_.size(), 0);
  std::vector<char> leaf_seen(n_partitions_, 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    ANNSIM_CHECK_MSG(n.vp.empty() || n.vp.size() == dim_,
                     "node " << i << ": vantage point has " << n.vp.size()
                             << " coordinates, tree dim is " << dim_);
    if (n.leaf != kInvalidPartition) {
      ANNSIM_CHECK_MSG(n.left == -1 && n.right == -1,
                       "node " << i << ": leaf with children");
      ANNSIM_CHECK_MSG(n.leaf < n_partitions_ && !leaf_seen[n.leaf],
                       "node " << i << ": leaf id " << n.leaf
                               << " repeats or is not below "
                               << n_partitions_);
      leaf_seen[n.leaf] = 1;
      continue;
    }
    ANNSIM_CHECK_MSG(!n.vp.empty() || n.axis < dim_,
                     "node " << i << ": split axis " << n.axis
                             << " is not below dim " << dim_);
    for (const std::int32_t child : {n.left, n.right}) {
      ANNSIM_CHECK_MSG(child > std::int32_t(i) &&
                           std::size_t(child) < nodes_.size() &&
                           !has_parent[std::size_t(child)],
                       "node " << i << ": child " << child
                               << " is out of range, not after its parent, "
                                  "or already has a parent");
      has_parent[std::size_t(child)] = 1;
    }
  }
}

PartitionBuildResult PartitionTree::build(const data::Dataset& data,
                                          const PartitionTreeParams& params,
                                          PartitionTreeKind kind) {
  ANNSIM_CHECK_MSG(std::has_single_bit(params.target_partitions),
                   "target_partitions must be a power of two");
  return build_tree(data, params, kind);
}

PartitionBuildResult PartitionTree::build_buckets(const data::Dataset& data,
                                                  simd::Metric metric,
                                                  PartitionTreeKind kind) {
  ANNSIM_CHECK(!data.empty());
  PartitionTreeParams params;
  params.target_partitions = (data.size() + kBucketRows - 1) / kBucketRows;
  params.vantage_candidates = 16;
  params.vantage_sample = 64;
  params.seed = 7;
  params.metric = metric;
  return build_tree(data, params, kind);
}

std::vector<PartitionId> PartitionTree::route_ball(const float* query,
                                                   float radius) const {
  const simd::DistanceComputer dist(params_.metric, dim_);
  std::vector<PartitionId> out;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[std::size_t(stack.back())];
    stack.pop_back();
    if (n.leaf != kInvalidPartition) {
      out.push_back(n.leaf);
      continue;
    }
    const float t = n.split_value(query, dist);
    if (t - radius <= n.mu) stack.push_back(n.left);    // ball reaches below
    if (t + radius >= n.mu) stack.push_back(n.right);   // ball reaches above
  }
  std::sort(out.begin(), out.end());
  return out;
}

PartitionId PartitionTree::route_nearest(const float* query) const {
  const simd::DistanceComputer dist(params_.metric, dim_);
  std::int32_t cur = 0;
  for (;;) {
    const Node& n = nodes_[std::size_t(cur)];
    if (n.leaf != kInvalidPartition) return n.leaf;
    cur = n.split_value(query, dist) < n.mu ? n.left : n.right;
  }
}

RoutingDecision PartitionTree::route_topk(const float* query,
                                          std::size_t max_partitions) const {
  ANNSIM_CHECK(max_partitions >= 1);
  RoutingDecision out;
  (void)best_first(query, [&](PartitionId leaf, float lb) {
    out.partitions.push_back(leaf);
    out.lower_bounds.push_back(lb);
    return out.partitions.size() < max_partitions;
  });
  return out;
}

std::size_t PartitionTree::depth() const {
  std::size_t max_depth = 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[std::size_t(node)];
    if (n.leaf != kInvalidPartition) {
      max_depth = std::max(max_depth, d);
      continue;
    }
    stack.push_back({n.left, d + 1});
    stack.push_back({n.right, d + 1});
  }
  return max_depth;
}

void PartitionTree::serialize(BinaryWriter& w) const {
  w.write(kMagic);
  w.write(std::uint64_t(n_partitions_));
  w.write(std::uint64_t(dim_));
  w.write(std::int32_t(params_.metric));
  w.write(std::uint64_t(params_.vantage_candidates));
  w.write(std::uint64_t(params_.vantage_sample));
  w.write(params_.seed);
  w.write(std::uint64_t(nodes_.size()));
  for (const Node& n : nodes_) {
    w.write_span(std::span<const float>(n.vp));
    w.write(n.axis);
    w.write(n.mu);
    w.write(n.left);
    w.write(n.right);
    w.write(n.leaf);
  }
}

PartitionTree PartitionTree::deserialize(BinaryReader& r) {
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == kMagic,
                   "bad partition tree magic");
  const auto n_partitions = r.read<std::uint64_t>();
  const auto dim = r.read<std::uint64_t>();
  PartitionTreeParams params;
  params.target_partitions = n_partitions;
  params.metric = simd::Metric(r.read<std::int32_t>());
  params.vantage_candidates = r.read<std::uint64_t>();
  params.vantage_sample = r.read<std::uint64_t>();
  params.seed = r.read<std::uint64_t>();
  // Every node takes at least 28 bytes, so a count the image cannot hold is
  // rejected before it sizes an allocation.
  const auto n_nodes = r.read<std::uint64_t>();
  ANNSIM_CHECK_MSG(n_nodes <= r.remaining() / 28,
                   "partition tree claims " << n_nodes << " nodes");
  std::vector<Node> nodes(n_nodes);
  for (auto& n : nodes) {
    n.vp = r.read_vector<float>();
    n.axis = r.read<std::uint32_t>();
    n.mu = r.read<float>();
    n.left = r.read<std::int32_t>();
    n.right = r.read<std::int32_t>();
    n.leaf = r.read<PartitionId>();
  }
  return PartitionTree(std::move(nodes), n_partitions, dim, params);
}

}  // namespace annsim::vptree
