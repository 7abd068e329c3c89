#include "annsim/kdtree/kd_tree.hpp"

#include <algorithm>

#include "annsim/common/error.hpp"
#include "annsim/common/topk.hpp"

namespace annsim::kdtree {

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

/// TopK plus eval counter passed down the recursion.
class KdTopK {
 public:
  KdTopK(std::size_t k, std::size_t* evals) : topk_(k), evals_(evals) {}
  TopK topk_;
  std::size_t* evals_;
};

KdTree::KdTree(const data::Dataset* data, KdTreeParams params)
    : data_(data),
      params_(params),
      dist_(params.metric, data->dim()) {
  ANNSIM_CHECK(data_ != nullptr);
  ANNSIM_CHECK_MSG(params_.metric == simd::Metric::kL2 ||
                       params_.metric == simd::Metric::kL1,
                   "KD-tree supports coordinate metrics only");
  ANNSIM_CHECK(params_.leaf_size >= 1);
  if (data_->empty()) return;
  rows_.resize(data_->size());
  for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i] = i;
  nodes_.reserve(2 * data_->size() / params_.leaf_size + 2);
  root_ = build(0, rows_.size());
}

std::int32_t KdTree::build(std::size_t begin, std::size_t end) {
  const std::int32_t id = std::int32_t(nodes_.size());
  nodes_.emplace_back();
  Node& n = nodes_.back();

  if (end - begin <= params_.leaf_size) {
    n.begin = std::uint32_t(begin);
    n.end = std::uint32_t(end);
    return id;
  }

  const std::span<const std::size_t> range(rows_.data() + begin, end - begin);
  const std::uint32_t axis = widest_axis(*data_, range);
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(rows_.begin() + std::ptrdiff_t(begin),
                   rows_.begin() + std::ptrdiff_t(mid),
                   rows_.begin() + std::ptrdiff_t(end),
                   [&](std::size_t a, std::size_t b) {
                     return data_->row(a)[axis] < data_->row(b)[axis];
                   });
  // Write through the reference *before* recursing: build() reallocates nodes_.
  nodes_[id].axis = axis;
  nodes_[id].split = data_->row(rows_[mid])[axis];
  const std::int32_t left = build(begin, mid);
  const std::int32_t right = build(mid, end);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void KdTree::search_node(std::int32_t node, const float* query,
                         KdTopK& ref) const {
  const Node& n = nodes_[std::size_t(node)];
  if (n.left < 0) {  // leaf
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      const std::size_t row = rows_[i];
      ref.topk_.push(dist_(query, data_->row(row)), data_->id(row));
      if (ref.evals_ != nullptr) ++*ref.evals_;
    }
    return;
  }
  const float delta = query[n.axis] - n.split;
  const std::int32_t near = delta < 0.f ? n.left : n.right;
  const std::int32_t far = delta < 0.f ? n.right : n.left;
  search_node(near, query, ref);
  // The axis gap is a lower bound on both L2 and L1 distance to the far cell.
  if (std::abs(delta) <= ref.topk_.worst_dist()) {
    search_node(far, query, ref);
  }
}

std::vector<Neighbor> KdTree::search(const float* query, std::size_t k,
                                     std::size_t* evals_out) const {
  ANNSIM_CHECK(k > 0);
  if (root_ < 0) return {};
  if (evals_out != nullptr) *evals_out = 0;
  KdTopK ref(k, evals_out);
  search_node(root_, query, ref);
  return ref.topk_.take_sorted();
}

}  // namespace annsim::kdtree
