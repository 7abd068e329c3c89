#pragma once
/// \file protocol.hpp
/// \brief Wire formats of the master/worker search protocol (Algorithms 3-5)
/// and the layout of the master's one-sided result window (§IV-C1, Fig 2),
/// through which every search answer returns. The paper's two-sided
/// ablation lives in the search DES (des::SearchSimConfig::one_sided).

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
inline constexpr mpi::Tag kTagEoq = 3;      ///< master -> worker: End of Queries
inline constexpr mpi::Tag kTagDone = 4;     ///< worker -> master: all jobs finished
inline constexpr mpi::Tag kTagTree = 5;     ///< worker 0 -> master: serialized VP tree
inline constexpr mpi::Tag kTagSlotFull = 7;  ///< worker -> master: an accumulate
                                             ///< completed a query's slot
inline constexpr mpi::Tag kTagReplica = 11;     ///< worker -> worker: partition replica
inline constexpr mpi::Tag kTagHeartbeat = 12;   ///< worker -> master: liveness beacon
inline constexpr mpi::Tag kTagWake = 17;  ///< rank 0 -> itself: a stream's
                                          ///< source has queries to admit

// Write-plane control tags (streaming mutability). All four are reserved:
// they carry state-changing orders whose loss would silently diverge the
// replicas, so plain send() on them is a checker violation and the fault
// injector treats them as reliable (never dropped or delayed — though a dead
// worker still never receives them).
inline constexpr mpi::Tag kTagInsert = 13;    ///< master -> worker: rows to absorb
inline constexpr mpi::Tag kTagDelete = 14;    ///< master -> worker: ids to tombstone
inline constexpr mpi::Tag kTagWriteAck = 15;  ///< worker -> master: write/compact ack
inline constexpr mpi::Tag kTagCompact = 16;   ///< master -> worker: compaction order

/// The id space of one search operation. A query in flight is named by its
/// 64-bit stream sequence number `seq`; it occupies result slot
/// `seq % n_queries` (slot_of), and the next occupant of that slot gets
/// `seq + n_queries`, so a sequence number names one occupancy of one slot
/// and a message from a slot's previous occupant is told apart by it. Every
/// decoder checks the other ids it carries against these bounds and throws
/// annsim::Error on a stray one, so no decoded id can index past an
/// operation-sized array.
struct BatchBounds {
  std::size_t n_queries = 0;     ///< result slots (>= 1): queries in flight
  std::size_t n_partitions = 0;  ///< partition ids are < n_partitions
  std::size_t dim = 0;           ///< every query vector holds dim floats
};

/// The result slot a stream sequence number occupies.
[[nodiscard]] std::size_t slot_of(std::uint64_t seq, const BatchBounds& bounds);

/// One dispatched search job: the query with stream sequence number `seq`
/// on partition `partition`. k is the operation's, and the result goes back
/// to the rank that sent the job.
struct QueryJob {
  std::uint64_t seq = 0;
  PartitionId partition = kInvalidPartition;
  std::uint32_t ef = 0;          ///< 0 = index default
  /// Jobs of this query the master dispatched to a live replica, in
  /// [1, n_partitions], counting exact routing's first phase into its
  /// second. The accumulate that makes the slot `fanout` merges sends
  /// kTagSlotFull.
  std::uint32_t fanout = 1;
  std::vector<float> query;      ///< the query vector
};

[[nodiscard]] std::vector<std::byte> encode_query_job(const QueryJob& job);
/// Throws annsim::Error on a malformed payload or when the job falls outside
/// `bounds`: partition, fanout or the vector length.
[[nodiscard]] QueryJob decode_query_job(std::span<const std::byte> bytes,
                                        const BatchBounds& bounds);

/// Slot-full notice: the payload is the sequence number of the query whose
/// slot filled.
[[nodiscard]] std::vector<std::byte> encode_slot_full(std::uint64_t seq);
/// Throws annsim::Error on a malformed payload.
[[nodiscard]] std::uint64_t decode_slot_full(std::span<const std::byte> bytes);

/// Completion notice: how many jobs this worker processed (Fig 4(b) data).
struct DoneNotice {
  std::uint64_t jobs_processed = 0;
  double compute_seconds = 0.0;  ///< time spent in local searches
  double comm_seconds = 0.0;     ///< time spent in send/accumulate calls
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
// The master exposes one fixed-size slot per query in flight:
//   [ u64 seq | u64 partition_mask[W] | Neighbor[k] ]
// with W = ceil(n_partitions / 64) mask words. `seq` names the slot's
// current occupant (the master stamps it when it admits the query); the
// merged count is the number of mask bits. Workers fold their local k-NN
// into a slot with a single atomic get_accumulate whose merge op performs
// the sorted k-NN merge and sets the searched partition's mask bit.
//
// The merge op drops an update whose seq is not the slot's: a late or
// duplicated partial from the slot's previous occupant is discarded, never
// merged into the next one. The mask makes failover retries idempotent: a
// worker that died mid-stream may already have landed some of its merges,
// and a replica re-running the same job must not double-merge the
// partition, so the merge op drops an origin whose partition bit is already
// set. The master reads the mask to poll progress under a finite
// failure-detection deadline and to attribute per-query coverage.
//
// The accumulate also fetches the slot's previous header. The one whose
// merge is fresh, for the slot's occupant, and brings the merged count to
// the job's fanout completed the slot; its worker sends the master a
// kTagSlotFull notice carrying the seq, and the master answers that query
// at once. Exact routing's first notice instead makes the master plan the
// query's ball from the slot; the ball's jobs carry a fanout that counts
// the first job too, so the ball's last merge rings once more. The merge is
// atomic at the target, so each fanout reached gets exactly one notice.
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
  [[nodiscard]] std::size_t slot_offset(std::size_t slot) const noexcept {
    return slot * slot_bytes();
  }
};

/// True when `mask` (slot partition-mask words) has partition `p`'s bit set.
[[nodiscard]] bool mask_contains(std::span<const std::uint64_t> mask,
                                 PartitionId p) noexcept;

/// Serialize a local result into the accumulate origin-buffer format (the
/// job's `seq`, the searched `partition`'s mask bit, then exactly k
/// neighbors, padded with +inf sentinels).
[[nodiscard]] std::vector<std::byte> encode_slot_update(
    std::span<const Neighbor> neighbors, const SlotLayout& layout,
    PartitionId partition, std::uint64_t seq);

/// An empty slot for occupant `seq`: written into `slot` (layout.slot_bytes()
/// long) before the occupant's first job goes out.
void init_slot(std::span<std::byte> slot, const SlotLayout& layout,
               std::uint64_t seq);

/// The merge op passed to Window::get_accumulate: k-NN-merge the origin
/// neighbors into the target slot and set the origin's partition bit. An
/// origin for another occupant (seq differs) or whose partition bit is
/// already set in the target is dropped (stale partial, idempotent retry).
/// Throws annsim::Error, leaving the target untouched, when either region
/// is malformed.
[[nodiscard]] mpi::Window::MergeOp knn_slot_merge(const SlotLayout& layout);

/// Slot header only (cheap poll): occupant, merged count, partition mask.
struct SlotHeader {
  std::uint64_t seq = 0;
  std::uint32_t merged_count = 0;  ///< mask bits
  std::vector<std::uint64_t> mask;

  [[nodiscard]] bool contains_partition(PartitionId p) const noexcept {
    return mask_contains(mask, p);
  }
};
/// Throws annsim::Error when the header is malformed: a mask bit at or past
/// n_partitions.
[[nodiscard]] SlotHeader decode_slot_header(std::span<const std::byte> slot,
                                            const SlotLayout& layout);

/// Decode a final slot into (seq, merged count, partition mask, sorted
/// neighbors without sentinels). Validates the header like
/// decode_slot_header.
struct DecodedSlot {
  std::uint64_t seq = 0;
  std::uint32_t merged_count = 0;  ///< mask bits
  std::vector<std::uint64_t> mask;
  std::vector<Neighbor> neighbors;

  [[nodiscard]] bool contains_partition(PartitionId p) const noexcept {
    return mask_contains(mask, p);
  }
};
[[nodiscard]] DecodedSlot decode_slot(std::span<const std::byte> slot,
                                      const SlotLayout& layout);

}  // namespace annsim::core
