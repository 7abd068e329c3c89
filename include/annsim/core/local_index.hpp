#pragma once
/// \file local_index.hpp
/// \brief Pluggable per-partition index — the paper's extensibility point:
/// "Our approach is extensible in that any algorithm can be used for local
/// indexing and searching instead of HNSW" (§VI).
///
/// Implementations: HNSW (the paper's choice), an exact brute-force scan, an
/// exact tree (a bucket-leaf vptree::PartitionTree with the VP or KD split
/// rule), IVF-PQ, and the live-mutable segmented index. Workers
/// build/serialize replicas through this interface, so swapping the local
/// algorithm never touches the distributed machinery.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "annsim/common/thread_pool.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/pq/ivfpq_index.hpp"
#include "annsim/simd/distance.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::segment {
class SegmentedIndex;
}

namespace annsim::core {

/// Which algorithm serves local k-NN inside each partition. Values 2 and 5
/// are retired and must not be reused: engine images holding them are
/// rejected.
enum class LocalIndexKind : std::uint8_t {
  kHnsw = 0,        ///< approximate, the paper's configuration
  kBruteForce = 1,  ///< exact linear scan (turns the engine into exact k-NN
                    ///< when combined with exact_routing)
  kIvfPq = 3,       ///< compressed (IVF-PQ): tiny memory, recall ceiling
  kSegmented = 4,   ///< live-mutable: frozen segments + delta + tombstones
  kExactTree = 6,   ///< exact best-first tree search; VP or KD split rule
                    ///< (with the KD rule, the Table III baseline's)
};

/// True for the values above; false for a removed or unknown kind byte.
[[nodiscard]] bool is_local_index_kind(LocalIndexKind kind) noexcept;

[[nodiscard]] const char* local_index_kind_name(LocalIndexKind kind) noexcept;

/// Per-partition search index. Implementations reference (not own) the
/// partition's Dataset, which must outlive them.
class LocalIndex {
 public:
  virtual ~LocalIndex() = default;

  /// k-NN over the partition; `ef` is a beam-width hint (HNSW) and ignored
  /// by exact implementations. Returns global ids, sorted by distance.
  [[nodiscard]] virtual std::vector<Neighbor> search(const float* query,
                                                     std::size_t k,
                                                     std::size_t ef) const = 0;

  [[nodiscard]] virtual LocalIndexKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Serialize the index structure (not the vectors) for replica shipping.
  [[nodiscard]] virtual std::vector<std::byte> to_bytes() const = 0;

  // ---- write plane (live mutability) ----------------------------------
  //
  // Frozen kinds reject writes with a typed Error naming the kind; only
  // kSegmented overrides these. The engine gates its insert()/remove() API
  // on supports_writes() so the failure surfaces at the master, not deep
  // inside a worker thread.

  /// True when insert()/erase()/compact() are implemented.
  [[nodiscard]] virtual bool supports_writes() const noexcept { return false; }

  /// Absorb one vector under `id`. Throws for read-only kinds.
  virtual void insert(std::span<const float> vec, GlobalId id);

  /// Tombstone `id`; returns false when the id is not live here.
  /// Throws for read-only kinds.
  virtual bool erase(GlobalId id);

  /// Re-freeze delta + segments; returns false when a no-op.
  /// Throws for read-only kinds.
  virtual bool compact(ThreadPool* pool = nullptr);

  /// Rows waiting in the mutable delta tier (0 for read-only kinds).
  [[nodiscard]] virtual std::size_t delta_fill() const { return 0; }

  /// The underlying segmented index when kind() == kSegmented, else null —
  /// the hook checkpointing uses to snapshot segment parts incrementally.
  [[nodiscard]] virtual const segment::SegmentedIndex* segmented()
      const noexcept {
    return nullptr;
  }
};

/// Construction parameters shared by every kind.
struct LocalIndexParams {
  LocalIndexKind kind = LocalIndexKind::kHnsw;
  hnsw::HnswParams hnsw;    ///< used when kind == kHnsw or kSegmented
  pq::IvfPqParams ivfpq;    ///< used when kind == kIvfPq (L2 only)
  simd::Metric metric = simd::Metric::kL2;
  /// kExactTree's split rule; the engine passes its partitioner's.
  vptree::PartitionTreeKind tree = vptree::PartitionTreeKind::kVpTree;
  /// Delta capacity per segmented replica (kind == kSegmented).
  std::size_t segment_delta_capacity = 1024;
  /// kSegmented only: store frozen segments as SQ8 codes with an exact float
  /// re-rank cache (see segment::SegmentedParams). L2 / InnerProduct only.
  bool quantize_frozen = false;
  /// Fraction of quantized rows kept as exact floats for re-ranking.
  double float_cache_fraction = 0.02;
};

/// kExactTree: exact k-NN over a PartitionTree whose leaves are buckets of
/// about vptree::kBucketRows rows, searched best-first until the next leaf's
/// lower bound exceeds the k-th distance so far. Equal bounds are visited, so
/// (dist, id) ties resolve as brute force resolves them. The tree rebuilds
/// deterministically from the data, so replicas ship no bytes.
class ExactTreeIndex final : public LocalIndex {
 public:
  ExactTreeIndex(const data::Dataset* data, simd::Metric metric,
                 vptree::PartitionTreeKind rule);

  std::vector<Neighbor> search(const float* query, std::size_t k,
                               std::size_t /*ef*/) const override {
    return search_exact(query, k);
  }
  /// search() that also reports the distance evaluations it spent (leaf rows
  /// scanned plus VP split distances) through `evals_out` when non-null (the
  /// pruning-quality measure).
  [[nodiscard]] std::vector<Neighbor> search_exact(
      const float* query, std::size_t k, std::size_t* evals_out = nullptr) const;

  LocalIndexKind kind() const noexcept override {
    return LocalIndexKind::kExactTree;
  }
  std::size_t size() const noexcept override { return data_->size(); }
  std::vector<std::byte> to_bytes() const override { return {}; }

 private:
  const data::Dataset* data_;
  simd::DistanceComputer dist_;
  std::optional<vptree::PartitionTree> tree_;  ///< absent over no rows
  /// Leaf l owns rows_[leaf_begin_[l], leaf_begin_[l + 1]).
  std::vector<std::uint32_t> leaf_begin_;
  std::vector<std::uint32_t> rows_;  ///< data rows grouped by leaf
};

/// Build a fresh index over `data` (runs the build immediately). A pool
/// parallelizes HNSW construction inside the worker, matching the paper's
/// multi-threaded local index builds.
[[nodiscard]] std::unique_ptr<LocalIndex> build_local_index(
    const data::Dataset* data, const LocalIndexParams& params,
    ThreadPool* pool = nullptr);

/// Reconstruct a replica index from `to_bytes()` output.
[[nodiscard]] std::unique_ptr<LocalIndex> local_index_from_bytes(
    std::span<const std::byte> bytes, const data::Dataset* data,
    const LocalIndexParams& params);

}  // namespace annsim::core
