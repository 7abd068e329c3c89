#include "annsim/core/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "annsim/common/error.hpp"

namespace annsim::core {

namespace {

void check_partition(PartitionId partition, const BatchBounds& bounds) {
  ANNSIM_CHECK_MSG(std::size_t(partition) < bounds.n_partitions,
                   "partition " << partition << " outside "
                                << bounds.n_partitions << " partitions");
}

}  // namespace

std::size_t slot_of(std::uint64_t seq, const BatchBounds& bounds) {
  ANNSIM_CHECK_MSG(bounds.n_queries >= 1, "an operation has at least one slot");
  return std::size_t(seq % bounds.n_queries);
}

std::vector<std::byte> encode_query_job(const QueryJob& job) {
  BinaryWriter w;
  w.write(job.seq);
  w.write(job.partition);
  w.write(job.ef);
  w.write(job.fanout);
  w.write_vector(job.query);
  return w.take();
}

QueryJob decode_query_job(std::span<const std::byte> bytes,
                          const BatchBounds& bounds) {
  BinaryReader r(bytes);
  QueryJob job;
  job.seq = r.read<std::uint64_t>();
  job.partition = r.read<PartitionId>();
  job.ef = r.read<std::uint32_t>();
  job.fanout = r.read<std::uint32_t>();
  job.query = r.read_vector<float>();
  ANNSIM_CHECK(r.exhausted());
  check_partition(job.partition, bounds);
  ANNSIM_CHECK_MSG(job.fanout >= 1 && job.fanout <= bounds.n_partitions,
                   "job fanout " << job.fanout << " outside [1, "
                                 << bounds.n_partitions << "]");
  ANNSIM_CHECK_MSG(job.query.size() == bounds.dim,
                   "query vector of " << job.query.size() << " floats, want "
                                      << bounds.dim);
  return job;
}

std::vector<std::byte> encode_slot_full(std::uint64_t seq) {
  BinaryWriter w;
  w.write(seq);
  return w.take();
}

std::uint64_t decode_slot_full(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  const auto seq = r.read<std::uint64_t>();
  ANNSIM_CHECK(r.exhausted());
  return seq;
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

constexpr std::size_t kSeqBytes = sizeof(std::uint64_t);

std::uint64_t slot_seq(std::span<const std::byte> slot) {
  std::uint64_t seq = 0;
  std::memcpy(&seq, slot.data(), sizeof(seq));
  return seq;
}

std::uint64_t mask_word(std::span<const std::byte> slot, std::size_t w) {
  std::uint64_t word = 0;
  std::memcpy(&word, slot.data() + kSeqBytes + w * sizeof(word),
              sizeof(word));
  return word;
}

/// Validate a slot header and return its merged count, the number of mask
/// bits: none may sit at or past n_partitions.
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
  return std::uint32_t(bits);
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
                                          PartitionId partition,
                                          std::uint64_t seq) {
  ANNSIM_CHECK_MSG(std::size_t(partition) < layout.n_partitions,
                   "encode_slot_update: partition " << partition
                                                    << " outside the layout's "
                                                    << layout.n_partitions);
  std::vector<std::byte> out(layout.slot_bytes());
  std::memcpy(out.data(), &seq, sizeof(seq));
  const std::uint64_t bit = std::uint64_t{1} << (std::size_t(partition) % 64);
  std::memcpy(out.data() + kSeqBytes +
                  (std::size_t(partition) / 64) * sizeof(bit),
              &bit, sizeof(bit));
  write_neighbors(out, layout, neighbors);
  return out;
}

void init_slot(std::span<std::byte> slot, const SlotLayout& layout,
               std::uint64_t seq) {
  ANNSIM_CHECK(slot.size() == layout.slot_bytes());
  std::fill(slot.begin(), slot.end(), std::byte{0});
  std::memcpy(slot.data(), &seq, sizeof(seq));
}

mpi::Window::MergeOp knn_slot_merge(const SlotLayout& layout) {
  return [layout](std::span<std::byte> target,
                  std::span<const std::byte> origin) {
    ANNSIM_CHECK(target.size() == layout.slot_bytes());
    ANNSIM_CHECK(origin.size() == layout.slot_bytes());
    const std::uint32_t t_count = checked_count(target, layout);
    ANNSIM_CHECK_MSG(checked_count(origin, layout) == 1,
                     "slot update must carry exactly one partition");

    // A partial for another occupant of this slot (a late or duplicated job
    // of the query answered before) is stale: drop it.
    if (slot_seq(origin) != slot_seq(target)) return;
    // Failover retry that already landed: the origin's partition is merged
    // into this slot already, so the whole update is a duplicate. Drop it.
    const std::size_t words = layout.mask_words();
    bool fresh = false;
    for (std::size_t w = 0; w < words; ++w) {
      fresh = fresh || (mask_word(origin, w) & ~mask_word(target, w)) != 0;
    }
    if (!fresh) return;

    // An empty slot holds zero-initialized neighbors (dist 0, id 0); treat
    // it as empty rather than as k bogus zero-distance hits.
    const std::vector<Neighbor> o_nb = read_neighbors(origin, layout);
    const std::vector<Neighbor> merged =
        t_count == 0 ? o_nb
                     : merge_sorted_knn(read_neighbors(target, layout), o_nb,
                                        layout.k);

    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = mask_word(target, w) | mask_word(origin, w);
      std::memcpy(target.data() + kSeqBytes + w * sizeof(word), &word,
                  sizeof(word));
    }
    write_neighbors(target, layout, merged);
  };
}

SlotHeader decode_slot_header(std::span<const std::byte> slot,
                              const SlotLayout& layout) {
  SlotHeader out;
  out.merged_count = checked_count(slot, layout);
  out.seq = slot_seq(slot);
  out.mask = read_mask(slot, layout);
  return out;
}

DecodedSlot decode_slot(std::span<const std::byte> slot,
                        const SlotLayout& layout) {
  ANNSIM_CHECK(slot.size() >= layout.slot_bytes());
  DecodedSlot out;
  out.merged_count = checked_count(slot, layout);
  out.seq = slot_seq(slot);
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
