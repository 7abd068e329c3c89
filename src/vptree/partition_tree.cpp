#include "annsim/vptree/partition_tree.hpp"

#include <algorithm>
#include <bit>
#include <queue>

#include "annsim/common/error.hpp"
#include "annsim/kdtree/kd_tree.hpp"
#include "annsim/vptree/vantage.hpp"

namespace annsim::vptree {

namespace {

constexpr std::uint32_t kMagic = 0x50545232;  // "PTR2"

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
      split.axis = kdtree::widest_axis(data, range);
    }

    // Median split: left = below the median of t (for VP, inside the
    // vantage sphere — the paper equates the median radius with the
    // equipartitioning sphere).
    const std::size_t mid = begin + (end - begin) / 2;
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
  ANNSIM_CHECK(params.target_partitions >= 1);
  ANNSIM_CHECK_MSG(std::has_single_bit(params.target_partitions),
                   "target_partitions must be a power of two");
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
  const simd::DistanceComputer dist(params_.metric, dim_);

  // Best-first traversal on the lower-bound distance from the query to each
  // subtree's region (|t - mu| across the separating sphere or plane). A
  // query exactly on a split (t == mu) bounds both sides at the same value;
  // the side route_nearest does not take is marked and yields that tie, so
  // the first partition listed is always route_nearest's.
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

  RoutingDecision out;
  while (!heap.empty() && out.partitions.size() < max_partitions) {
    const Entry e = heap.top();
    heap.pop();
    const Node& n = nodes_[std::size_t(e.node)];
    if (n.leaf != kInvalidPartition) {
      out.partitions.push_back(n.leaf);
      out.lower_bounds.push_back(e.lb);
      continue;
    }
    const float t = n.split_value(query, dist);
    const float left_lb = t < n.mu ? e.lb : std::max(e.lb, t - n.mu);
    const float right_lb = t >= n.mu ? e.lb : std::max(e.lb, n.mu - t);
    heap.push({left_lb, e.off_nearest || t == n.mu, n.left});
    heap.push({right_lb, e.off_nearest, n.right});
  }
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
