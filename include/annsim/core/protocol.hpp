#pragma once
/// \file protocol.hpp
/// \brief Wire formats of the master/worker search protocol (Algorithms 3-5)
/// and the layout of the master's one-sided result window (§IV-C1, Fig 2).

#include <cstdint>
#include <span>
#include <vector>

#include "annsim/common/serialize.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/common/types.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::core {

// Message tags of the search protocol.
inline constexpr mpi::Tag kTagQuery = 1;    ///< -> worker: one (q, d) job
inline constexpr mpi::Tag kTagResult = 2;   ///< -> master: two-sided local k-NN
                                            ///< or an owner's merged answer
inline constexpr mpi::Tag kTagEoq = 3;      ///< master -> worker: End of Queries
inline constexpr mpi::Tag kTagDone = 4;     ///< worker -> master: all jobs finished
inline constexpr mpi::Tag kTagTree = 5;     ///< worker 0 -> master: serialized VP tree
inline constexpr mpi::Tag kTagOwnerResult = 6;  ///< worker -> owner (multiple-owner mode)
inline constexpr mpi::Tag kTagSlotFull = 7;  ///< worker -> master: an accumulate
                                             ///< completed a query's slot
inline constexpr mpi::Tag kTagOwnerBatch = 8;   ///< master -> owner: its query share
inline constexpr mpi::Tag kTagReplica = 11;     ///< worker -> worker: partition replica
inline constexpr mpi::Tag kTagHeartbeat = 12;   ///< worker -> master: liveness beacon

// Write-plane control tags (streaming mutability). All four are reserved:
// they carry state-changing orders whose loss would silently diverge the
// replicas, so plain send() on them is a checker violation and the fault
// injector treats them as reliable (never dropped or delayed — though a dead
// worker still never receives them).
inline constexpr mpi::Tag kTagInsert = 13;    ///< master -> worker: rows to absorb
inline constexpr mpi::Tag kTagDelete = 14;    ///< master -> worker: ids to tombstone
inline constexpr mpi::Tag kTagWriteAck = 15;  ///< worker -> master: write/compact ack
inline constexpr mpi::Tag kTagCompact = 16;   ///< master -> worker: compaction order

/// The id space of one search batch. Every decoder of a batch message checks
/// the ids it carries against these bounds and throws annsim::Error on a
/// stray one, so no decoded id can index past a batch-sized array.
struct BatchBounds {
  std::size_t n_queries = 0;     ///< query ids are < n_queries
  std::size_t n_partitions = 0;  ///< partition ids are < n_partitions
  std::size_t dim = 0;           ///< every query vector holds dim floats
};

/// One dispatched search job: query `query_id` on partition `partition`.
struct QueryJob {
  std::uint32_t query_id = 0;
  PartitionId partition = kInvalidPartition;
  std::uint32_t k = 0;
  std::uint32_t ef = 0;          ///< 0 = index default
  std::uint32_t reply_to = 0;    ///< comm rank that merges the result
  /// Jobs of this query the master dispatched to a live replica, in
  /// [1, n_partitions]. The one-sided transport counts it against the slot:
  /// the accumulate that makes it `fanout` merges sends kTagSlotFull.
  std::uint32_t fanout = 1;
  std::vector<float> query;      ///< the query vector
};

[[nodiscard]] std::vector<std::byte> encode_query_job(const QueryJob& job);
/// Throws annsim::Error on a malformed payload or when the job falls outside
/// `bounds`: query_id, partition, fanout or the vector length.
[[nodiscard]] QueryJob decode_query_job(std::span<const std::byte> bytes,
                                        const BatchBounds& bounds);

/// A worker's local k-NN result for one job. In multiple-owner mode it also
/// carries an owner's merged answer to the master; there `partition` holds
/// the number of partitions merged (|F(q)|) instead of a partition id.
struct LocalResult {
  std::uint32_t query_id = 0;
  PartitionId partition = kInvalidPartition;
  std::vector<Neighbor> neighbors;  ///< sorted ascending by distance
};

[[nodiscard]] std::vector<std::byte> encode_local_result(const LocalResult& r);
/// Throws annsim::Error on a malformed payload or when query_id or partition
/// falls outside `bounds`.
[[nodiscard]] LocalResult decode_local_result(std::span<const std::byte> bytes,
                                              const BatchBounds& bounds);
/// An owner's merged answer (multiple-owner mode): a LocalResult whose
/// `partition` holds |F(q)|, so it is checked to be at most n_partitions.
[[nodiscard]] LocalResult decode_owner_answer(std::span<const std::byte> bytes,
                                              const BatchBounds& bounds);

/// Slot-full notice (one-sided transport): the payload is the query id.
[[nodiscard]] std::vector<std::byte> encode_slot_full(std::uint32_t query_id);
/// Throws annsim::Error on a malformed payload or a query id outside `bounds`.
[[nodiscard]] std::uint32_t decode_slot_full(std::span<const std::byte> bytes,
                                             const BatchBounds& bounds);

/// Completion notice: how many jobs this worker processed (Fig 4(b) data).
struct DoneNotice {
  std::uint64_t jobs_processed = 0;
  double compute_seconds = 0.0;  ///< time spent in local searches
  double comm_seconds = 0.0;     ///< time spent in send/accumulate calls
  double route_seconds = 0.0;    ///< owner-side routing (multiple-owner mode)
};

// ---- write plane ------------------------------------------------------

/// Streaming inserts bound for one worker: each row is addressed to a hosted
/// partition's segmented replica. One batch per worker per write round.
struct WriteBatch {
  struct Row {
    PartitionId partition = kInvalidPartition;
    GlobalId id = kInvalidGlobalId;
    /// Master-assigned global log sequence number. Every replica of one row
    /// logs the same LSN, so a checkpoint watermark taken on any worker is
    /// comparable with any worker's WAL at replay time.
    std::uint64_t lsn = 0;
    std::vector<float> vec;
  };
  std::vector<Row> rows;
};

[[nodiscard]] std::vector<std::byte> encode_write_batch(const WriteBatch& b);
[[nodiscard]] WriteBatch decode_write_batch(std::span<const std::byte> bytes);

/// Ids to tombstone. Broadcast to every alive worker (the master has no
/// id -> partition map; a worker not hosting an id simply ignores it).
struct DeleteBatch {
  std::vector<GlobalId> ids;
  /// Parallel to `ids`: the master-assigned LSN of each tombstone (same
  /// value on every worker, see WriteBatch::Row::lsn). Empty batches from
  /// pre-WAL callers decode as all-zero.
  std::vector<std::uint64_t> lsns;
};

[[nodiscard]] std::vector<std::byte> encode_delete_batch(const DeleteBatch& b);
[[nodiscard]] DeleteBatch decode_delete_batch(std::span<const std::byte> bytes);

/// Worker's acknowledgement of one write round or compaction order.
struct WriteAck {
  std::uint64_t inserted = 0;        ///< rows absorbed into delta tiers
  std::uint64_t erased = 0;          ///< tombstones that hit a live id
  std::uint64_t max_delta_fill = 0;  ///< fullest delta across hosted replicas
  std::uint64_t compactions = 0;     ///< replicas compacted by this order
};

[[nodiscard]] std::vector<std::byte> encode_write_ack(const WriteAck& a);
[[nodiscard]] WriteAck decode_write_ack(std::span<const std::byte> bytes);

// ---- one-sided result window -----------------------------------------
//
// The master exposes one fixed-size slot per query:
//   [ u32 merged_count | u32 pad | u64 partition_mask[W] | Neighbor[k] ]
// with W = ceil(n_partitions / 64) mask words. Workers fold their local k-NN
// into a slot with a single atomic get_accumulate whose merge op performs the
// sorted k-NN merge, sets the searched partition's mask bit and bumps
// merged_count, so merged_count is always the number of mask bits.
//
// The mask makes failover retries idempotent: a worker that died mid-batch
// may already have landed some of its merges, and a replica re-running the
// same job must not double-merge the partition. The merge op drops an origin
// whose partition bit is already set. The master reads the mask to poll
// progress under a finite failure-detection deadline and to attribute
// per-query coverage.
//
// The accumulate also fetches the slot's previous header. The one whose
// merge is fresh and brings merged_count to the job's fanout completed the
// slot; its worker sends the master a kTagSlotFull notice, and the master
// answers that query at once instead of at batch end. The merge is atomic
// at the target, so each fully covered query gets exactly one notice.

struct SlotLayout {
  /// k neighbors per slot; `partitions` >= 1 sizes the partition mask.
  SlotLayout(std::size_t neighbors, std::size_t partitions);

  std::size_t k;
  std::size_t n_partitions;

  [[nodiscard]] std::size_t mask_words() const noexcept {
    return (n_partitions + 63) / 64;
  }
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return sizeof(std::uint64_t) + mask_words() * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t slot_bytes() const noexcept {
    return header_bytes() + k * sizeof(Neighbor);
  }
  [[nodiscard]] std::size_t window_bytes(std::size_t n_queries) const noexcept {
    return n_queries * slot_bytes();
  }
  [[nodiscard]] std::size_t slot_offset(std::size_t query_id) const noexcept {
    return query_id * slot_bytes();
  }
};

/// True when `mask` (slot partition-mask words) has partition `p`'s bit set.
[[nodiscard]] bool mask_contains(std::span<const std::uint64_t> mask,
                                 PartitionId p) noexcept;

/// Serialize a local result into the accumulate origin-buffer format
/// (count=1, the searched `partition`'s mask bit, then exactly k neighbors,
/// padded with +inf sentinels).
[[nodiscard]] std::vector<std::byte> encode_slot_update(
    std::span<const Neighbor> neighbors, const SlotLayout& layout,
    PartitionId partition);

/// The merge op passed to Window::get_accumulate: k-NN-merge the origin
/// neighbors into the target slot, set the origin's partition bit and add
/// its merged_count. An origin whose partition bit is already set in the
/// target is dropped (idempotent retry). Throws annsim::Error, leaving the
/// target untouched, when either region is malformed.
[[nodiscard]] mpi::Window::MergeOp knn_slot_merge(const SlotLayout& layout);

/// Slot header only (cheap poll): merged count plus partition mask.
struct SlotHeader {
  std::uint32_t merged_count = 0;
  std::vector<std::uint64_t> mask;

  [[nodiscard]] bool contains_partition(PartitionId p) const noexcept {
    return mask_contains(mask, p);
  }
};
/// Throws annsim::Error when the header is malformed: a mask bit at or past
/// n_partitions, or merged_count different from the number of mask bits.
[[nodiscard]] SlotHeader decode_slot_header(std::span<const std::byte> slot,
                                            const SlotLayout& layout);

/// Decode a final slot into (merged_count, partition mask, sorted neighbors
/// without sentinels). Validates the header like decode_slot_header.
struct DecodedSlot {
  std::uint32_t merged_count = 0;
  std::vector<std::uint64_t> mask;
  std::vector<Neighbor> neighbors;

  [[nodiscard]] bool contains_partition(PartitionId p) const noexcept {
    return mask_contains(mask, p);
  }
};
[[nodiscard]] DecodedSlot decode_slot(std::span<const std::byte> slot,
                                      const SlotLayout& layout);

}  // namespace annsim::core
