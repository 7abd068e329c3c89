#include "annsim/core/protocol.hpp"

#include <bit>
#include <cstring>

#include "annsim/common/error.hpp"

namespace annsim::core {

namespace {

void check_query_id(std::uint32_t query_id, const BatchBounds& bounds) {
  ANNSIM_CHECK_MSG(query_id < bounds.n_queries,
                   "query id " << query_id << " outside a batch of "
                               << bounds.n_queries);
}

void check_partition(PartitionId partition, const BatchBounds& bounds) {
  ANNSIM_CHECK_MSG(std::size_t(partition) < bounds.n_partitions,
                   "partition " << partition << " outside "
                                << bounds.n_partitions << " partitions");
}

LocalResult read_local_result(std::span<const std::byte> bytes,
                              const BatchBounds& bounds) {
  BinaryReader r(bytes);
  LocalResult out;
  out.query_id = r.read<std::uint32_t>();
  out.partition = r.read<PartitionId>();
  out.neighbors = r.read_vector<Neighbor>();
  ANNSIM_CHECK(r.exhausted());
  check_query_id(out.query_id, bounds);
  return out;
}

}  // namespace

std::vector<std::byte> encode_query_job(const QueryJob& job) {
  BinaryWriter w;
  w.write(job.query_id);
  w.write(job.partition);
  w.write(job.k);
  w.write(job.ef);
  w.write(job.reply_to);
  w.write(job.fanout);
  w.write_vector(job.query);
  return w.take();
}

QueryJob decode_query_job(std::span<const std::byte> bytes,
                          const BatchBounds& bounds) {
  BinaryReader r(bytes);
  QueryJob job;
  job.query_id = r.read<std::uint32_t>();
  job.partition = r.read<PartitionId>();
  job.k = r.read<std::uint32_t>();
  job.ef = r.read<std::uint32_t>();
  job.reply_to = r.read<std::uint32_t>();
  job.fanout = r.read<std::uint32_t>();
  job.query = r.read_vector<float>();
  ANNSIM_CHECK(r.exhausted());
  check_query_id(job.query_id, bounds);
  check_partition(job.partition, bounds);
  ANNSIM_CHECK_MSG(job.fanout >= 1 && job.fanout <= bounds.n_partitions,
                   "job fanout " << job.fanout << " outside [1, "
                                 << bounds.n_partitions << "]");
  ANNSIM_CHECK_MSG(job.query.size() == bounds.dim,
                   "query vector of " << job.query.size() << " floats, want "
                                      << bounds.dim);
  return job;
}

std::vector<std::byte> encode_local_result(const LocalResult& r) {
  BinaryWriter w;
  w.write(r.query_id);
  w.write(r.partition);
  w.write_span(std::span<const Neighbor>(r.neighbors));
  return w.take();
}

LocalResult decode_local_result(std::span<const std::byte> bytes,
                                const BatchBounds& bounds) {
  LocalResult out = read_local_result(bytes, bounds);
  check_partition(out.partition, bounds);
  return out;
}

LocalResult decode_owner_answer(std::span<const std::byte> bytes,
                                const BatchBounds& bounds) {
  LocalResult out = read_local_result(bytes, bounds);
  ANNSIM_CHECK_MSG(std::size_t(out.partition) <= bounds.n_partitions,
                   "owner answer merged " << out.partition << " of "
                                          << bounds.n_partitions
                                          << " partitions");
  return out;
}

std::vector<std::byte> encode_slot_full(std::uint32_t query_id) {
  BinaryWriter w;
  w.write(query_id);
  return w.take();
}

std::uint32_t decode_slot_full(std::span<const std::byte> bytes,
                               const BatchBounds& bounds) {
  BinaryReader r(bytes);
  const auto query_id = r.read<std::uint32_t>();
  ANNSIM_CHECK(r.exhausted());
  check_query_id(query_id, bounds);
  return query_id;
}

std::vector<std::byte> encode_write_batch(const WriteBatch& b) {
  BinaryWriter w;
  w.write(std::uint64_t(b.rows.size()));
  for (const auto& row : b.rows) {
    w.write(row.partition);
    w.write(row.id);
    w.write(row.lsn);
    w.write_vector(row.vec);
  }
  return w.take();
}

WriteBatch decode_write_batch(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  WriteBatch out;
  const auto n = r.read<std::uint64_t>();
  out.rows.resize(n);
  for (auto& row : out.rows) {
    row.partition = r.read<PartitionId>();
    row.id = r.read<GlobalId>();
    row.lsn = r.read<std::uint64_t>();
    row.vec = r.read_vector<float>();
  }
  ANNSIM_CHECK(r.exhausted());
  return out;
}

std::vector<std::byte> encode_delete_batch(const DeleteBatch& b) {
  ANNSIM_CHECK_MSG(b.lsns.empty() || b.lsns.size() == b.ids.size(),
                   "DeleteBatch.lsns must be empty or parallel to ids");
  BinaryWriter w;
  w.write_vector(b.ids);
  w.write_vector(b.lsns);
  return w.take();
}

DeleteBatch decode_delete_batch(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  DeleteBatch out;
  out.ids = r.read_vector<GlobalId>();
  out.lsns = r.read_vector<std::uint64_t>();
  ANNSIM_CHECK(r.exhausted());
  ANNSIM_CHECK_MSG(out.lsns.empty() || out.lsns.size() == out.ids.size(),
                   "DeleteBatch.lsns must be empty or parallel to ids");
  if (out.lsns.empty()) out.lsns.assign(out.ids.size(), 0);
  return out;
}

std::vector<std::byte> encode_write_ack(const WriteAck& a) {
  BinaryWriter w;
  w.write(a.inserted);
  w.write(a.erased);
  w.write(a.max_delta_fill);
  w.write(a.compactions);
  return w.take();
}

WriteAck decode_write_ack(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  WriteAck out;
  out.inserted = r.read<std::uint64_t>();
  out.erased = r.read<std::uint64_t>();
  out.max_delta_fill = r.read<std::uint64_t>();
  out.compactions = r.read<std::uint64_t>();
  ANNSIM_CHECK(r.exhausted());
  return out;
}

SlotLayout::SlotLayout(std::size_t neighbors, std::size_t partitions)
    : k(neighbors), n_partitions(partitions) {
  ANNSIM_CHECK_MSG(partitions >= 1, "SlotLayout needs n_partitions >= 1");
}

bool mask_contains(std::span<const std::uint64_t> mask,
                   PartitionId p) noexcept {
  const std::size_t word = std::size_t(p) / 64;
  if (word >= mask.size()) return false;
  return (mask[word] >> (std::size_t(p) % 64)) & 1U;
}

namespace {

constexpr std::size_t kCountBytes = sizeof(std::uint64_t);  // count + pad

std::uint64_t mask_word(std::span<const std::byte> slot, std::size_t w) {
  std::uint64_t word = 0;
  std::memcpy(&word, slot.data() + kCountBytes + w * sizeof(word),
              sizeof(word));
  return word;
}

std::uint32_t merged_count(std::span<const std::byte> slot) {
  std::uint32_t count = 0;
  std::memcpy(&count, slot.data(), sizeof(count));
  return count;
}

/// Validate a slot header and return its merged count: no mask bit at or
/// past n_partitions, and one mask bit per merge.
std::uint32_t checked_count(std::span<const std::byte> slot,
                            const SlotLayout& layout) {
  ANNSIM_CHECK(slot.size() >= layout.header_bytes());
  const std::size_t words = layout.mask_words();
  const std::size_t tail_bits = layout.n_partitions % 64;
  std::size_t bits = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t word = mask_word(slot, w);
    const bool last = w + 1 == words;
    ANNSIM_CHECK_MSG(!last || tail_bits == 0 || (word >> tail_bits) == 0,
                     "slot mask names a partition past n_partitions");
    bits += std::size_t(std::popcount(word));
  }
  const std::uint32_t count = merged_count(slot);
  ANNSIM_CHECK_MSG(count == bits, "slot merged_count " << count
                                                       << " but mask holds "
                                                       << bits);
  return count;
}

std::vector<std::uint64_t> read_mask(std::span<const std::byte> slot,
                                     const SlotLayout& layout) {
  std::vector<std::uint64_t> mask(layout.mask_words());
  for (std::size_t w = 0; w < mask.size(); ++w) mask[w] = mask_word(slot, w);
  return mask;
}

/// Write `neighbors` (at most k) into the slot, padding with +inf sentinels.
void write_neighbors(std::span<std::byte> slot, const SlotLayout& layout,
                     std::span<const Neighbor> neighbors) {
  const std::size_t n = std::min(neighbors.size(), layout.k);
  std::byte* out = slot.data() + layout.header_bytes();
  if (n != 0) std::memcpy(out, neighbors.data(), n * sizeof(Neighbor));
  const Neighbor sentinel;
  for (std::size_t i = n; i < layout.k; ++i) {
    std::memcpy(out + i * sizeof(Neighbor), &sentinel, sizeof(Neighbor));
  }
}

std::vector<Neighbor> read_neighbors(std::span<const std::byte> slot,
                                     const SlotLayout& layout) {
  std::vector<Neighbor> out(layout.k);
  std::memcpy(out.data(), slot.data() + layout.header_bytes(),
              layout.k * sizeof(Neighbor));
  return out;
}

}  // namespace

std::vector<std::byte> encode_slot_update(std::span<const Neighbor> neighbors,
                                          const SlotLayout& layout,
                                          PartitionId partition) {
  ANNSIM_CHECK_MSG(std::size_t(partition) < layout.n_partitions,
                   "encode_slot_update: partition " << partition
                                                    << " outside the layout's "
                                                    << layout.n_partitions);
  std::vector<std::byte> out(layout.slot_bytes());
  const std::uint32_t count = 1;
  std::memcpy(out.data(), &count, sizeof(count));
  const std::uint64_t bit = std::uint64_t{1} << (std::size_t(partition) % 64);
  std::memcpy(out.data() + kCountBytes +
                  (std::size_t(partition) / 64) * sizeof(bit),
              &bit, sizeof(bit));
  write_neighbors(out, layout, neighbors);
  return out;
}

mpi::Window::MergeOp knn_slot_merge(const SlotLayout& layout) {
  return [layout](std::span<std::byte> target,
                  std::span<const std::byte> origin) {
    ANNSIM_CHECK(target.size() == layout.slot_bytes());
    ANNSIM_CHECK(origin.size() == layout.slot_bytes());
    const std::uint32_t t_count = checked_count(target, layout);
    ANNSIM_CHECK_MSG(checked_count(origin, layout) == 1,
                     "slot update must carry exactly one partition");

    // Failover retry that already landed: the origin's partition is merged
    // into this slot already, so the whole update is a duplicate. Drop it.
    const std::size_t words = layout.mask_words();
    bool fresh = false;
    for (std::size_t w = 0; w < words; ++w) {
      fresh = fresh || (mask_word(origin, w) & ~mask_word(target, w)) != 0;
    }
    if (!fresh) return;

    // A fresh slot holds zero-initialized neighbors (dist 0, id 0) when
    // count == 0; treat it as empty rather than as k bogus zero-distance hits.
    const std::vector<Neighbor> o_nb = read_neighbors(origin, layout);
    const std::vector<Neighbor> merged =
        t_count == 0 ? o_nb
                     : merge_sorted_knn(read_neighbors(target, layout), o_nb,
                                        layout.k);

    const std::uint32_t new_count = t_count + 1;
    std::memcpy(target.data(), &new_count, sizeof(new_count));
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = mask_word(target, w) | mask_word(origin, w);
      std::memcpy(target.data() + kCountBytes + w * sizeof(word), &word,
                  sizeof(word));
    }
    write_neighbors(target, layout, merged);
  };
}

SlotHeader decode_slot_header(std::span<const std::byte> slot,
                              const SlotLayout& layout) {
  SlotHeader out;
  out.merged_count = checked_count(slot, layout);
  out.mask = read_mask(slot, layout);
  return out;
}

DecodedSlot decode_slot(std::span<const std::byte> slot,
                        const SlotLayout& layout) {
  ANNSIM_CHECK(slot.size() >= layout.slot_bytes());
  DecodedSlot out;
  out.merged_count = checked_count(slot, layout);
  out.mask = read_mask(slot, layout);
  out.neighbors = read_neighbors(slot, layout);
  // Drop +inf padding sentinels.
  while (!out.neighbors.empty() &&
         out.neighbors.back().id == kInvalidGlobalId) {
    out.neighbors.pop_back();
  }
  return out;
}

}  // namespace annsim::core
