#include "annsim/core/local_index.hpp"

#include <limits>
#include <string_view>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/segment/segmented_index.hpp"

namespace annsim::core {

namespace {

[[noreturn]] void throw_read_only(LocalIndexKind kind, const char* op) {
  std::ostringstream os;
  os << "LocalIndex::" << op << ": '" << local_index_kind_name(kind)
     << "' is a read-only index kind; streaming writes need kind=segmented";
  throw Error(os.str());
}

}  // namespace

void LocalIndex::insert(std::span<const float> /*vec*/, GlobalId /*id*/) {
  throw_read_only(kind(), "insert");
}

bool LocalIndex::erase(GlobalId /*id*/) { throw_read_only(kind(), "erase"); }

bool LocalIndex::compact(ThreadPool* /*pool*/) {
  throw_read_only(kind(), "compact");
}

namespace {

class HnswLocalIndex final : public LocalIndex {
 public:
  HnswLocalIndex(hnsw::HnswIndex index) : index_(std::move(index)) {
    // Both construction paths (build(), from_bytes()) already hand over a
    // frozen index; freeze() is idempotent and makes the read-optimized
    // flat form a guarantee of this wrapper rather than a convention.
    index_.freeze();
  }

  std::vector<Neighbor> search(const float* query, std::size_t k,
                               std::size_t ef) const override {
    return index_.search(query, k, ef);
  }

  LocalIndexKind kind() const noexcept override { return LocalIndexKind::kHnsw; }
  std::size_t size() const noexcept override { return index_.size(); }

  std::vector<std::byte> to_bytes() const override { return index_.to_bytes(); }

 private:
  hnsw::HnswIndex index_;
};

class BruteForceLocalIndex final : public LocalIndex {
 public:
  BruteForceLocalIndex(const data::Dataset* data, simd::Metric metric)
      : index_(data, metric), n_(data->size()) {}

  std::vector<Neighbor> search(const float* query, std::size_t k,
                               std::size_t /*ef*/) const override {
    return index_.search(query, k);
  }

  LocalIndexKind kind() const noexcept override {
    return LocalIndexKind::kBruteForce;
  }
  std::size_t size() const noexcept override { return n_; }

  std::vector<std::byte> to_bytes() const override { return {}; }  // stateless

 private:
  hnsw::BruteForceIndex index_;
  std::size_t n_;
};

class IvfPqLocalIndex final : public LocalIndex {
 public:
  IvfPqLocalIndex(const data::Dataset* data, pq::IvfPqParams params)
      : index_(pq::IvfPqIndex::build(
            *data, clamp_params(std::move(params), data->size()))) {}

  std::vector<Neighbor> search(const float* query, std::size_t k,
                               std::size_t ef) const override {
    // Interpret the beam-width hint as nprobe (both are the recall dial).
    return index_.search(query, k, ef);
  }

  LocalIndexKind kind() const noexcept override { return LocalIndexKind::kIvfPq; }
  std::size_t size() const noexcept override { return index_.size(); }

  // IVF-PQ rebuilds deterministically from the partition data; replicas
  // re-train rather than ship codebooks.
  std::vector<std::byte> to_bytes() const override { return {}; }

 private:
  static pq::IvfPqParams clamp_params(pq::IvfPqParams p, std::size_t n) {
    p.nlist = std::min(p.nlist, std::max<std::size_t>(1, n / 8));
    p.pq.ks = std::min(p.pq.ks, n);
    return p;
  }

  pq::IvfPqIndex index_;
};

/// Adapter exposing segment::SegmentedIndex through the LocalIndex plug
/// point. Unlike the read-only kinds it *owns* its data (segments reference
/// their own frozen Datasets; the delta pre-allocates), so the partition
/// Dataset handed to the factories is copied once at build and unused on the
/// from_bytes path — replicas ship the full image in the index bytes.
class SegmentedLocalIndex final : public LocalIndex {
 public:
  explicit SegmentedLocalIndex(std::unique_ptr<segment::SegmentedIndex> idx)
      : idx_(std::move(idx)) {}

  std::vector<Neighbor> search(const float* query, std::size_t k,
                               std::size_t ef) const override {
    return idx_->search(query, k, ef);
  }

  LocalIndexKind kind() const noexcept override {
    return LocalIndexKind::kSegmented;
  }
  std::size_t size() const noexcept override { return idx_->size(); }

  std::vector<std::byte> to_bytes() const override { return idx_->to_bytes(); }

  bool supports_writes() const noexcept override { return true; }
  void insert(std::span<const float> vec, GlobalId id) override {
    idx_->insert(vec, id);
  }
  bool erase(GlobalId id) override { return idx_->erase(id); }
  bool compact(ThreadPool* pool) override { return idx_->compact(pool); }
  std::size_t delta_fill() const override { return idx_->delta_fill(); }
  const segment::SegmentedIndex* segmented() const noexcept override {
    return idx_.get();
  }

 private:
  std::unique_ptr<segment::SegmentedIndex> idx_;
};

segment::SegmentedParams segmented_params(const LocalIndexParams& params) {
  segment::SegmentedParams sp;
  sp.hnsw = params.hnsw;
  sp.hnsw.metric = params.metric;
  sp.delta_capacity = params.segment_delta_capacity;
  sp.quantize_frozen = params.quantize_frozen;
  sp.float_cache_fraction = params.float_cache_fraction;
  return sp;
}

}  // namespace

ExactTreeIndex::ExactTreeIndex(const data::Dataset* data, simd::Metric metric,
                               vptree::PartitionTreeKind rule)
    : data_(data), dist_(metric, data->dim()) {
  ANNSIM_CHECK_MSG(simd::is_true_metric(metric),
                   "the exact tree requires a true metric (L2 or L1)");
  if (data_->empty()) return;
  ANNSIM_CHECK(data_->size() <= std::numeric_limits<std::uint32_t>::max());
  auto built = vptree::PartitionTree::build_buckets(*data_, metric, rule);
  // Counting sort of the rows by leaf.
  const std::size_t n_leaves = built.partition_sizes.size();
  leaf_begin_.assign(n_leaves + 1, 0);
  for (std::size_t l = 0; l < n_leaves; ++l) {
    const std::size_t size = built.partition_sizes[l];
    ANNSIM_CHECK(size <= vptree::kBucketRows);
    leaf_begin_[l + 1] = leaf_begin_[l] + std::uint32_t(size);
  }
  std::vector<std::uint32_t> cursor(leaf_begin_.begin(), leaf_begin_.end() - 1);
  rows_.resize(data_->size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[cursor[built.assignment[i]]++] = std::uint32_t(i);
  }
  tree_.emplace(std::move(built.tree));
}

std::vector<Neighbor> ExactTreeIndex::search_exact(
    const float* query, std::size_t k, std::size_t* evals_out) const {
  ANNSIM_CHECK(k > 0);
  if (evals_out != nullptr) *evals_out = 0;
  if (!tree_.has_value()) return {};
  TopK topk(k);
  std::size_t scanned = 0;
  const auto scan_leaf = [&](PartitionId leaf, float lb) {
    // A leaf bound equal to the k-th distance may still hold a tie that
    // wins on id, so only a strictly larger bound ends the search.
    if (lb > topk.worst_dist()) return false;
    const std::uint32_t begin = leaf_begin_[leaf];
    const std::size_t m = leaf_begin_[leaf + 1] - begin;
    float dists[vptree::kBucketRows];
    dist_.search_dist_batch(query, data_->row(0), data_->stride(),
                            rows_.data() + begin, m, dists);
    for (std::size_t j = 0; j < m; ++j) {
      topk.push(dist_.to_ranking(dists[j]), data_->id(rows_[begin + j]));
    }
    scanned += m;
    return true;
  };
  const std::size_t split_evals = tree_->best_first(query, scan_leaf);
  if (evals_out != nullptr) *evals_out = scanned + split_evals;
  return topk.take_sorted();
}

bool is_local_index_kind(LocalIndexKind kind) noexcept {
  return std::string_view(local_index_kind_name(kind)) != "?";
}

const char* local_index_kind_name(LocalIndexKind kind) noexcept {
  switch (kind) {
    case LocalIndexKind::kHnsw: return "hnsw";
    case LocalIndexKind::kBruteForce: return "bruteforce";
    case LocalIndexKind::kIvfPq: return "ivfpq";
    case LocalIndexKind::kSegmented: return "segmented";
    case LocalIndexKind::kExactTree: return "exacttree";
  }
  return "?";
}

std::unique_ptr<LocalIndex> build_local_index(const data::Dataset* data,
                                              const LocalIndexParams& params,
                                              ThreadPool* pool) {
  ANNSIM_CHECK(data != nullptr);
  switch (params.kind) {
    case LocalIndexKind::kHnsw: {
      hnsw::HnswParams hp = params.hnsw;
      hp.metric = params.metric;
      hnsw::HnswIndex index(data, hp);
      index.build(pool);
      return std::make_unique<HnswLocalIndex>(std::move(index));
    }
    case LocalIndexKind::kBruteForce:
      return std::make_unique<BruteForceLocalIndex>(data, params.metric);
    case LocalIndexKind::kExactTree:
      return std::make_unique<ExactTreeIndex>(data, params.metric, params.tree);
    case LocalIndexKind::kIvfPq:
      ANNSIM_CHECK_MSG(params.metric == simd::Metric::kL2,
                       "IVF-PQ local index supports L2 only");
      return std::make_unique<IvfPqLocalIndex>(data, params.ivfpq);
    case LocalIndexKind::kSegmented:
      return std::make_unique<SegmentedLocalIndex>(
          std::make_unique<segment::SegmentedIndex>(
              data->slice(0, data->size()), segmented_params(params), pool));
  }
  ANNSIM_CHECK_MSG(false, "unknown local index kind");
  return nullptr;
}

std::unique_ptr<LocalIndex> local_index_from_bytes(
    std::span<const std::byte> bytes, const data::Dataset* data,
    const LocalIndexParams& params) {
  ANNSIM_CHECK(data != nullptr);
  switch (params.kind) {
    case LocalIndexKind::kHnsw:
      // Params (M, ef_construction, metric) travel inside the byte image.
      return std::make_unique<HnswLocalIndex>(
          hnsw::HnswIndex::from_bytes(bytes, data));
    case LocalIndexKind::kBruteForce:
      return std::make_unique<BruteForceLocalIndex>(data, params.metric);
    case LocalIndexKind::kExactTree:
      return std::make_unique<ExactTreeIndex>(data, params.metric, params.tree);
    case LocalIndexKind::kIvfPq:
      return std::make_unique<IvfPqLocalIndex>(data, params.ivfpq);
    case LocalIndexKind::kSegmented: {
      // The image is self-contained (it owns its vectors); `data` is the
      // replica's empty placeholder Dataset, which carries only the dim.
      const segment::SegmentedIndex::Expected expect{data->dim(),
                                                      segmented_params(params)};
      return std::make_unique<SegmentedLocalIndex>(
          segment::SegmentedIndex::from_bytes(bytes, &expect));
    }
  }
  ANNSIM_CHECK_MSG(false, "unknown local index kind");
  return nullptr;
}

}  // namespace annsim::core
