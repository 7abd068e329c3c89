#pragma once
/// \file segmented_index.hpp
/// \brief Live-mutable per-partition index: frozen segments + mutable delta
/// + tombstones (the ROADMAP's "Live mutability at serving scale").
///
/// The engine's FlatGraph HNSW is read-optimized but write-hostile: freezing
/// compacts the linked graph into a CSR slab and rejects further inserts. A
/// SegmentedIndex keeps serving from that frozen form while still absorbing a
/// write stream, LSM-style:
///
///  * one or more frozen *segments* — immutable (Dataset, HnswIndex) pairs —
///    serve the bulk of every search through the zero-lock flat-graph path;
///  * a small mutable *delta* HNSW absorbs inserts. Its Dataset is allocated
///    at full capacity up front so row storage never moves, which is what
///    makes the mutable-graph concurrent insert+search path safe to reuse;
///  * deletes are *tombstones*: a global-id set consulted at result emission,
///    in the same spirit as the masked-slot merge protocol (a deleted id must
///    never resurrect, even when replicas disagree mid-failover).
///
/// Searches snapshot an immutable View (segments + delta + tombstones)
/// published via shared_ptr swap, overfetch by the tombstone count, merge all
/// sources through the pooled TopK path, and filter deleted ids on the way
/// out. Background *compaction* re-freezes segments + delta - tombstones into
/// a single fresh segment and hot-swaps the View; in-flight readers finish on
/// the old View (whose tombstones travel with it), new readers see the new
/// one. Readers are never blocked; writers stall only for the duration of a
/// compaction.
///
/// Thread-safety contract: any number of concurrent search() calls, plus any
/// number of concurrent insert()/erase()/compact() calls (writers serialize
/// internally). snapshot_parts()/to_bytes() serialize against writers too, so
/// checkpoints are consistent cuts.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "annsim/common/thread_pool.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/quant/sq_segment.hpp"

namespace annsim::segment {

struct SegmentedParams {
  /// Parameters for both the frozen segment graphs and the mutable delta
  /// (including the metric).
  hnsw::HnswParams hnsw;
  /// Rows the delta absorbs before an insert forces a synchronous
  /// compaction. Storage is pre-allocated, so this is also the delta's
  /// fixed memory footprint.
  std::size_t delta_capacity = 1024;
  /// Store frozen segments as SQ8 code rows (quant::SqSegment) instead of
  /// full floats. The delta always stays full-float — quantization happens
  /// at freeze time, when the codec can be trained on the exact rows it will
  /// encode. Only kL2 / kInnerProduct metrics are supported when set.
  bool quantize_frozen = false;
  /// Fraction of each quantized segment's rows kept as exact floats for
  /// re-ranking (see quant::SqSegmentParams::float_cache_fraction).
  double float_cache_fraction = 0.02;
};

struct SegmentedStats {
  std::size_t n_segments = 0;
  std::size_t segment_rows = 0;  ///< frozen rows incl. tombstoned ones
  std::size_t delta_used = 0;
  std::size_t delta_capacity = 0;
  std::size_t tombstones = 0;
  std::uint64_t compactions = 0;
  // Quantized-tier diagnostics (all zero when quantize_frozen is off).
  std::size_t quant_rows = 0;            ///< rows stored as SQ8 codes
  std::size_t quant_resident_bytes = 0;  ///< codes + re-rank cache + codebook
  std::size_t quant_float_bytes = 0;     ///< what full floats would occupy
  std::size_t quant_cached_rows = 0;     ///< rows with an exact float copy
  std::uint64_t rerank_exact = 0;        ///< candidates re-scored exactly
  std::uint64_t rerank_coded = 0;        ///< candidates kept at SQ8 distance
};

class SegmentedIndex {
 public:
  /// Build from an initial corpus: `base` becomes frozen segment 0 (built
  /// with `pool` if supplied), plus an empty delta. An empty `base` yields a
  /// delta-only index that exists purely to absorb writes.
  SegmentedIndex(data::Dataset base, SegmentedParams params,
                 ThreadPool* pool = nullptr);

  SegmentedIndex(const SegmentedIndex&) = delete;
  SegmentedIndex& operator=(const SegmentedIndex&) = delete;

  /// k-NN over segments + delta, tombstones filtered, sorted by distance,
  /// ids deduplicated. Safe concurrently with writers and compaction.
  [[nodiscard]] std::vector<Neighbor> search(const float* query, std::size_t k,
                                             std::size_t ef = 0) const;

  /// Insert one vector under a caller-chosen global id. The id must not be
  /// live; re-inserting a previously erased id first purges its old physical
  /// copies via a synchronous compaction. A full delta also compacts
  /// synchronously before the row is absorbed.
  void insert(std::span<const float> vec, GlobalId id);

  /// Tombstone `id`. Returns false when the id is not live (unknown or
  /// already erased). The physical row lingers until the next compaction but
  /// is invisible to every subsequent search.
  bool erase(GlobalId id);

  /// Tiered compaction, LSM-style, so the common case stays O(delta) and
  /// never stalls serving behind a full index rebuild:
  ///  * minor (default): freeze the delta's live rows into one new small
  ///    segment and swap in a fresh empty delta; existing segments are
  ///    untouched and tombstones keep filtering them.
  ///  * major (escalated when the segment count exceeds kMajorFanout or
  ///    tombstones reach a quarter of the frozen rows): merge segments +
  ///    delta - tombstones into a single fresh segment, purging the
  ///    tombstone set.
  /// Returns false when there was nothing to do (empty delta, no pressure).
  /// Readers are never blocked; concurrent writers wait for the swap.
  bool compact(ThreadPool* pool = nullptr);

  /// Segment count (including the one a pending delta would add) above
  /// which compact() escalates from a minor to a major merge.
  static constexpr std::size_t kMajorFanout = 8;

  /// Live points (inserted and not erased).
  [[nodiscard]] std::size_t size() const;
  /// Rows currently in the delta (reset to 0 by compaction).
  [[nodiscard]] std::size_t delta_fill() const;
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const SegmentedParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] SegmentedStats stats() const;
  [[nodiscard]] bool contains(GlobalId id) const;

  /// Serialized full image, concatenation of snapshot_parts() in order:
  /// header | segments | delta. from_bytes() round-trips it.
  [[nodiscard]] std::vector<std::byte> to_bytes() const;

  /// The same image split for incremental checkpointing: frozen segment
  /// blobs are content-stable between compactions (keyed by segment id), so
  /// a checkpoint store can skip re-writing segments it already holds and
  /// persist only the small delta blob.
  struct SnapshotParts {
    std::vector<std::byte> header;
    /// (segment id, serialized segment) — ids strictly increase over the
    /// index's lifetime and never get reused, so id equality implies byte
    /// equality.
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> segments;
    std::vector<std::byte> delta;  ///< delta rows + tombstones
  };
  [[nodiscard]] SnapshotParts snapshot_parts() const;

  /// The index a decoder restores into. An image whose dimension or
  /// parameters disagree (all but the HNSW seed, which differs per
  /// partition) is rejected before anything is sized from its header, so a
  /// corrupt header cannot make the delta allocate.
  struct Expected {
    std::size_t dim = 0;
    SegmentedParams params;
  };
  static std::unique_ptr<SegmentedIndex> from_bytes(
      std::span<const std::byte> bytes, const Expected* expect = nullptr);
  /// Reassemble from individually stored parts (checkpoint restore).
  static std::unique_ptr<SegmentedIndex> from_parts(
      std::span<const std::byte> header,
      std::span<const std::pair<std::uint64_t, std::vector<std::byte>>>
          segments,
      std::span<const std::byte> delta, const Expected* expect = nullptr);

 private:
  /// Immutable frozen segment: either a (Dataset, frozen HnswIndex) pair
  /// (full-float tier; unique_ptr keeps the Dataset's address stable for the
  /// index that references it) or a quant::SqSegment (SQ8 tier: code rows +
  /// the same frozen topology + exact re-rank cache), per quantize_frozen.
  struct Segment {
    std::uint64_t id = 0;
    std::unique_ptr<data::Dataset> data;
    std::unique_ptr<hnsw::HnswIndex> index;
    std::unique_ptr<quant::SqSegment> quant;
    /// Serialized form, filled once on first snapshot: the segment is
    /// immutable, so the bytes never go stale, and per-round incremental
    /// checkpoints stop paying O(index) re-serialization.
    mutable std::once_flag wire_once;
    mutable std::vector<std::byte> wire;

    [[nodiscard]] std::size_t rows() const noexcept {
      return quant ? quant->size() : data->size();
    }
    [[nodiscard]] std::span<const GlobalId> row_ids() const noexcept {
      return quant ? quant->ids() : data->ids();
    }
  };

  /// Mutable write-absorbing tier. `data` is pre-sized to delta_capacity so
  /// rows never move; `used` publishes how many rows are valid.
  struct Delta {
    std::unique_ptr<data::Dataset> data;
    std::unique_ptr<hnsw::HnswIndex> index;
    std::atomic<std::size_t> used{0};
  };

  /// What a search sees: an atomic snapshot of segments, delta, and the
  /// tombstones that apply to *these* physical rows. Compaction publishes a
  /// fresh View; the old one (with its tombstones) stays alive for in-flight
  /// readers via shared_ptr.
  struct View {
    std::vector<std::shared_ptr<const Segment>> segments;
    std::shared_ptr<Delta> delta;
    std::shared_ptr<const std::unordered_set<GlobalId>> tombs;
  };

  SegmentedIndex(SegmentedParams params, std::size_t dim);

  [[nodiscard]] std::shared_ptr<const View> snapshot() const;
  void publish(std::shared_ptr<const View> v);
  [[nodiscard]] std::shared_ptr<Delta> make_delta() const;
  /// Freeze `rows` into a new segment (quantizing when quantize_frozen).
  /// `heat`, when row-aligned with `rows`, carries measured access counts
  /// into the quantized tier's re-rank cache selection (major compactions
  /// harvest them from the segments being merged).
  [[nodiscard]] std::shared_ptr<const Segment> freeze_rows(
      data::Dataset rows, ThreadPool* pool,
      std::span<const std::uint64_t> heat = {});
  /// compact() body; caller holds write_mu_.
  /// Caller holds write_mu_. `force_major` skips the tier decision and runs
  /// the full merge (re-inserting an erased id must purge its old frozen
  /// copies, which only a major compaction does).
  bool compact_locked(ThreadPool* pool, bool force_major = false);

  SegmentedParams params_;
  std::size_t dim_ = 0;

  /// Serializes insert/erase/compact/serialization against each other.
  mutable std::mutex write_mu_;
  /// Guards the view_ pointer swap (readers copy under it, briefly).
  mutable std::mutex view_mu_;
  std::shared_ptr<const View> view_;

  /// Live-id membership for erase()/contains()/size(). Writers mutate under
  /// write_mu_ + live_mu_; readers take live_mu_ alone.
  mutable std::mutex live_mu_;
  std::unordered_set<GlobalId> live_;

  std::uint64_t next_segment_id_ = 0;
  std::atomic<std::uint64_t> compactions_{0};
};

}  // namespace annsim::segment
