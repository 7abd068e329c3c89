#pragma once
/// \file hnsw_index.hpp
/// \brief From-scratch HNSW (Malkov & Yashunin, TPAMI 2018) — the local
/// per-partition index of the paper (§III-A).
///
/// Implements the published algorithm: exponentially-distributed node levels
/// (skip-list style promotion), greedy descent through the upper layers,
/// beam search (`ef`) in the bottom layer, and the "heuristic" neighbor
/// selection (Algorithm 4 of the HNSW paper) that keeps the graph navigable.
/// Insertions are thread-safe (per-node link locks + entry-point lock), as
/// the paper relies on multi-threaded local construction.
///
/// The index has two graph representations:
///  * a mutable linked form used during construction, searchable
///    concurrently with inserts: every row's level is drawn from (seed, row)
///    up front, so its lists are fixed-capacity blocks in two slabs
///    allocated at construction (2M ids per row on layer 0, M per upper
///    layer), each link stored with its distance to the list's owner;
///  * a read-optimized frozen form (`FlatGraph`, a contiguous CSR slab) that
///    `build()` / `from_bytes()` switch to automatically. The frozen search
///    path iterates adjacency spans with zero copies and zero locks, batches
///    neighbor distance computations, software-prefetches upcoming vectors,
///    and ranks candidates in squared-L2 space, deferring the `sqrt` to
///    result emission.
///
/// Both forms are searched by one kernel (layer_search.hpp) that differs
/// only in how it reads adjacency, so their results are identical. Its beam
/// is one sorted candidate pool, left ascending, so results need no final
/// sort. Inserts run the same kernel and select neighbors in pooled scratch
/// buffers, so once its scratch is warm an insert allocates nothing. A list
/// that a back-link overflows is re-selected incrementally from its stored
/// distances and kept count (neighbor_select.hpp), building the same graph
/// as the full heuristic over recomputed distances.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/common/thread_pool.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/hnsw/flat_graph.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {

struct HnswParams {
  /// Max out-degree per node on layers > 0 (layer 0 allows 2*M).
  /// Fig 6 of the paper sweeps M over {8, 16, 32, 64}; 16 is the default.
  std::size_t M = 16;
  /// Beam width during construction.
  std::size_t ef_construction = 200;
  /// Default beam width during search (can be overridden per query).
  std::size_t ef_search = 64;
  /// Level-assignment multiplier; 0 means the canonical 1/ln(M).
  double level_mult = 0.0;
  std::uint64_t seed = 1337;
  simd::Metric metric = simd::Metric::kL2;
};

/// Thrown by HnswIndex::insert once the index has been frozen into its
/// read-only flat form. A typed error (rather than a generic check failure)
/// so writable wrappers — notably segment::SegmentedIndex, whose delta must
/// never be frozen while it is still absorbing inserts — can distinguish
/// "index is in the wrong lifecycle state" from genuine precondition bugs.
class FrozenIndexError : public Error {
 public:
  explicit FrozenIndexError(const std::string& what) : Error(what) {}
};

/// Graph statistics for diagnostics and tests.
struct HnswStats {
  std::size_t n_nodes = 0;
  int max_level = -1;
  std::vector<std::size_t> nodes_per_level;
  double avg_degree_level0 = 0.0;
};

class HnswIndex {
 public:
  /// The index references `data` (not owned); it must outlive the index.
  /// Draws every row's level and allocates all of the linked graph's lists.
  HnswIndex(const data::Dataset* data, HnswParams params);
  ~HnswIndex();

  HnswIndex(HnswIndex&&) noexcept;
  HnswIndex& operator=(HnswIndex&&) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Insert every dataset row (multi-threaded when a pool is supplied), then
  /// freeze() into the read-optimized flat graph.
  void build(ThreadPool* pool = nullptr);

  /// Insert one dataset row (thread-safe; rows may arrive in any order but
  /// each row must be inserted exactly once). Throws once the index is
  /// frozen.
  void insert(LocalId node);

  /// Compact the linked adjacency into the immutable FlatGraph and release
  /// the mutable form. Requires quiescence: no concurrent insert() or
  /// search() calls may be in flight. Idempotent; called by build().
  void freeze();

  /// Verifies every list of the linked graph: ids in range, none twice, and
  /// a kept count no larger than the list. Throws annsim::Error naming the
  /// first bad list. Requires quiescence; a frozen index passes trivially.
  void check_links() const;

  /// True once the read-optimized frozen representation is active.
  [[nodiscard]] bool is_frozen() const noexcept;

  /// The frozen CSR adjacency (requires is_frozen()). The quantized tier
  /// reuses this exact topology to traverse SQ8 code rows: the graph is
  /// built once on the full-float rows at freeze time, then searched with
  /// the asymmetric uint8 kernels.
  [[nodiscard]] const FlatGraph& flat_graph() const;

  /// k-NN search. `ef` = 0 uses params().ef_search; effective beam width is
  /// max(ef, k). Returned distances follow the DistanceComputer convention;
  /// ids are the dataset's *global* ids, ready for cross-partition merging.
  [[nodiscard]] std::vector<Neighbor> search(const float* query, std::size_t k,
                                             std::size_t ef = 0) const;

  /// Batched k-NN over a query set, optionally multi-threaded (searches are
  /// read-only and safe to run concurrently).
  [[nodiscard]] data::KnnResults search_batch(const data::Dataset& queries,
                                              std::size_t k, std::size_t ef = 0,
                                              ThreadPool* pool = nullptr) const;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] const HnswParams& params() const noexcept { return params_; }
  [[nodiscard]] const data::Dataset& dataset() const noexcept { return *data_; }
  [[nodiscard]] HnswStats stats() const;

  /// In-memory (de)serialization — used to ship replica indexes between
  /// ranks during partition replication (§IV-C2). `from_bytes` deserializes
  /// straight into the frozen flat form (the linked graph is never
  /// materialized), so replicas come up read-optimized.
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  static HnswIndex from_bytes(std::span<const std::byte> bytes,
                              const data::Dataset* data);

 private:
  struct Impl;

  HnswIndex(const data::Dataset* data, HnswParams params, std::unique_ptr<Impl> impl);

  const data::Dataset* data_;
  HnswParams params_;
  std::unique_ptr<Impl> impl_;
};

/// Exact linear-scan index with the same search interface; used as the
/// differential-testing oracle and as a drop-in local index (the paper notes
/// "any algorithm can be used for local indexing and searching").
class BruteForceIndex {
 public:
  BruteForceIndex(const data::Dataset* data, simd::Metric metric)
      : data_(data), dist_(metric, data->dim()) {}

  [[nodiscard]] std::vector<Neighbor> search(const float* query,
                                             std::size_t k) const;

  [[nodiscard]] std::size_t size() const noexcept { return data_->size(); }

 private:
  const data::Dataset* data_;
  simd::DistanceComputer dist_;
};

}  // namespace annsim::hnsw
