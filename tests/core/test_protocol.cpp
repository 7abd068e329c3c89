#include "annsim/core/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "annsim/common/rng.hpp"

namespace annsim::core {
namespace {

// 43 queries, 8 partitions, 3-d vectors: every id the tests below encode
// sits on the edge of (or just past) these bounds.
const BatchBounds kBounds{43, 8, 3};

TEST(Protocol, QueryJobRoundTrip) {
  QueryJob job;
  job.seq = (std::uint64_t{1} << 40) + 42;  // past 32 bits: a long stream
  job.partition = 7;
  job.ef = 128;
  job.fanout = 8;
  job.query = {1.f, 2.f, 3.f};
  auto bytes = encode_query_job(job);
  QueryJob back = decode_query_job(bytes, kBounds);
  EXPECT_EQ(back.seq, job.seq);
  EXPECT_EQ(back.partition, 7u);
  EXPECT_EQ(back.ef, 128u);
  EXPECT_EQ(back.fanout, 8u);
  EXPECT_EQ(back.query, job.query);
  EXPECT_EQ(slot_of(back.seq, kBounds), job.seq % kBounds.n_queries);
}

TEST(Protocol, SlotOfNeedsASlot) {
  EXPECT_EQ(slot_of(85, kBounds), 85u % 43u);
  EXPECT_THROW((void)slot_of(1, BatchBounds{0, 8, 3}), Error);
}

TEST(Protocol, QueryJobRejectsTrailingGarbage) {
  QueryJob job;
  job.partition = 0;
  job.query = {1.f, 2.f, 3.f};
  auto bytes = encode_query_job(job);
  EXPECT_NO_THROW((void)decode_query_job(bytes, kBounds));
  bytes.push_back(std::byte{1});
  EXPECT_THROW((void)decode_query_job(bytes, kBounds), Error);
}

TEST(Protocol, LocalResultRoundTrip) {
  LocalResult r;
  r.seq = 5 + 43 * 1000;  // slot 5, a thousand occupants later
  r.partition = 2;
  r.neighbors = {{0.5f, 100}, {1.5f, 200}};
  auto bytes = encode_local_result(r);
  LocalResult back = decode_local_result(bytes, kBounds);
  EXPECT_EQ(back.seq, r.seq);
  EXPECT_EQ(back.partition, 2u);
  EXPECT_EQ(back.neighbors, r.neighbors);
}

TEST(SlotLayout, SizesAndOffsets) {
  SlotLayout layout{10, 4};
  EXPECT_EQ(layout.slot_bytes(), 16u + 10 * sizeof(Neighbor));
  EXPECT_EQ(layout.slot_offset(0), 0u);
  EXPECT_EQ(layout.slot_offset(3), 3 * layout.slot_bytes());
  EXPECT_EQ(layout.window_bytes(100), 100 * layout.slot_bytes());
}

TEST(SlotUpdate, PadsWithSentinels) {
  SlotLayout layout{5, 4};
  std::vector<Neighbor> two{{1.f, 1}, {2.f, 2}};
  auto bytes = encode_slot_update(two, layout, 0, 0);
  EXPECT_EQ(bytes.size(), layout.slot_bytes());
  DecodedSlot slot = decode_slot(bytes, layout);
  EXPECT_EQ(slot.merged_count, 1u);
  ASSERT_EQ(slot.neighbors.size(), 2u);  // sentinels stripped
  EXPECT_EQ(slot.neighbors[0].id, 1u);
}

TEST(SlotMerge, EmptySlotTakesOriginAsIs) {
  SlotLayout layout{3, 4};
  std::vector<std::byte> slot(layout.slot_bytes());  // zeroed: count == 0
  std::vector<Neighbor> mine{{1.f, 10}, {2.f, 20}};
  auto update = encode_slot_update(mine, layout, 0, 0);
  knn_slot_merge(layout)(slot, update);
  DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.merged_count, 1u);
  ASSERT_EQ(out.neighbors.size(), 2u);
  EXPECT_EQ(out.neighbors[0].id, 10u);
  EXPECT_EQ(out.neighbors[1].id, 20u);
}

TEST(SlotMerge, AccumulatesAcrossPartitions) {
  SlotLayout layout{3, 4};
  std::vector<std::byte> slot(layout.slot_bytes());
  const auto merge = knn_slot_merge(layout);
  using Nbs = std::vector<Neighbor>;
  merge(slot, encode_slot_update(Nbs{{3.f, 1}, {5.f, 2}}, layout, 0, 0));
  merge(slot, encode_slot_update(Nbs{{1.f, 3}, {4.f, 4}}, layout, 1, 0));
  merge(slot, encode_slot_update(Nbs{{2.f, 5}}, layout, 2, 0));
  DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.merged_count, 3u);
  ASSERT_EQ(out.neighbors.size(), 3u);
  EXPECT_EQ(out.neighbors[0].id, 3u);  // 1.0
  EXPECT_EQ(out.neighbors[1].id, 5u);  // 2.0
  EXPECT_EQ(out.neighbors[2].id, 1u);  // 3.0
}

TEST(SlotMerge, OrderIndependent) {
  SlotLayout layout{4, 4};
  Rng rng(3);
  std::vector<std::vector<Neighbor>> parts(4);
  GlobalId id = 0;
  for (auto& p : parts) {
    for (int i = 0; i < 6; ++i) p.push_back({rng.uniformf(), id++});
    std::sort(p.begin(), p.end());
  }
  auto run = [&](std::vector<std::size_t> order) {
    std::vector<std::byte> slot(layout.slot_bytes());
    const auto merge = knn_slot_merge(layout);
    for (auto i : order) {
      merge(slot, encode_slot_update(parts[i], layout, PartitionId(i), 0));
    }
    return decode_slot(slot, layout).neighbors;
  };
  const auto ref = run({0, 1, 2, 3});
  EXPECT_EQ(ref, run({3, 2, 1, 0}));
  EXPECT_EQ(ref, run({1, 3, 0, 2}));
}

TEST(SlotMerge, ValidatesRegionSizes) {
  SlotLayout layout{2, 4};
  std::vector<std::byte> small(4);
  std::vector<std::byte> slot(layout.slot_bytes());
  EXPECT_THROW(knn_slot_merge(layout)(slot, small), Error);
}

// ---- the partition mask ---------------------------------------------

TEST(MaskedSlot, LayoutSizesGrowByMaskWords) {
  SlotLayout masked{10, 64};
  EXPECT_EQ(masked.mask_words(), 1u);
  EXPECT_EQ(masked.header_bytes(), 16u);
  EXPECT_EQ(masked.slot_bytes(), 16u + 10 * sizeof(Neighbor));

  SlotLayout wide{10, 65};  // 65 partitions need a second mask word
  EXPECT_EQ(wide.mask_words(), 2u);
  EXPECT_EQ(wide.header_bytes(), 24u);
}

TEST(MaskedSlot, UpdateRecordsSearchedPartition) {
  SlotLayout layout{3, 8};
  std::vector<Neighbor> mine{{1.f, 10}};
  auto update = encode_slot_update(mine, layout, /*partition=*/5, 0);
  std::vector<std::byte> slot(layout.slot_bytes());
  knn_slot_merge(layout)(slot, update);
  DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.merged_count, 1u);
  EXPECT_TRUE(out.contains_partition(5));
  EXPECT_FALSE(out.contains_partition(4));
  SlotHeader header = decode_slot_header(slot, layout);
  EXPECT_EQ(header.merged_count, 1u);
  EXPECT_TRUE(header.contains_partition(5));
}

TEST(MaskedSlot, MaskedEncodeRequiresThePartitionId) {
  SlotLayout layout{3, 8};
  std::vector<Neighbor> mine{{1.f, 10}};
  EXPECT_THROW((void)encode_slot_update(mine, layout, kInvalidPartition, 0),
               Error);
  EXPECT_THROW((void)encode_slot_update(mine, layout, 8, 0), Error);
  EXPECT_THROW((SlotLayout{3, 0}), Error);
}

TEST(MaskedSlot, DuplicatePartitionMergeIsIdempotent) {
  // A failover retry may replay a merge the dead worker already landed; the
  // second copy must be dropped, leaving count, mask, and neighbors intact.
  SlotLayout layout{3, 4};
  std::vector<std::byte> slot(layout.slot_bytes());
  const auto merge = knn_slot_merge(layout);
  merge(slot, encode_slot_update(std::vector<Neighbor>{{1.f, 10}}, layout, 2, 0));
  merge(slot, encode_slot_update(std::vector<Neighbor>{{0.5f, 99}}, layout, 2, 0));
  DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.merged_count, 1u);
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].id, 10u);  // the retry's payload never merged
}

TEST(MaskedSlot, DistinctPartitionsAccumulateMaskBits) {
  SlotLayout layout{4, 70};  // two mask words, bits in both
  std::vector<std::byte> slot(layout.slot_bytes());
  const auto merge = knn_slot_merge(layout);
  merge(slot, encode_slot_update(std::vector<Neighbor>{{3.f, 1}}, layout, 0, 0));
  merge(slot, encode_slot_update(std::vector<Neighbor>{{1.f, 2}}, layout, 69, 0));
  DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.merged_count, 2u);
  EXPECT_TRUE(out.contains_partition(0));
  EXPECT_TRUE(out.contains_partition(69));
  EXPECT_FALSE(out.contains_partition(1));
  ASSERT_EQ(out.neighbors.size(), 2u);
  EXPECT_EQ(out.neighbors[0].id, 2u);  // still distance-sorted
}

TEST(MaskedSlot, UpdateWireBytes) {
  // [ u64 seq | u64 mask | Neighbor[k] ]: the one slot format.
  SlotLayout layout{2, 64};
  std::vector<Neighbor> mine{{1.f, 7}};
  auto update = encode_slot_update(mine, layout, 3, 77);
  ASSERT_EQ(update.size(), 16u + 2 * sizeof(Neighbor));
  std::uint64_t seq = 0;
  std::memcpy(&seq, update.data(), sizeof(seq));
  EXPECT_EQ(seq, 77u);
  std::uint64_t mask = 0;
  std::memcpy(&mask, update.data() + 8, sizeof(mask));
  EXPECT_EQ(mask, std::uint64_t{1} << 3);
  Neighbor first;
  std::memcpy(&first, update.data() + 16, sizeof(first));
  EXPECT_EQ(first.id, 7u);
}

TEST(MaskedSlot, DecodeRejectsInconsistentHeaders) {
  SlotLayout layout{2, 4};
  auto slot = encode_slot_update(std::vector<Neighbor>{{1.f, 7}}, layout, 1, 0);
  auto bad_mask = slot;
  const std::uint64_t past = std::uint64_t{1} << 4;  // partition 4 of 4
  std::memcpy(bad_mask.data() + 8, &past, sizeof(past));
  EXPECT_THROW((void)decode_slot(bad_mask, layout), Error);
  EXPECT_THROW((void)decode_slot_header(bad_mask, layout), Error);
}

// ---- the occupant's sequence number ----------------------------------

TEST(SlotSeq, InitSlotStampsAnEmptyOccupant) {
  SlotLayout layout{3, 4};
  std::vector<std::byte> slot(layout.slot_bytes(), std::byte{0x5a});
  init_slot(slot, layout, 1234);
  const DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.seq, 1234u);
  EXPECT_EQ(out.merged_count, 0u);
  EXPECT_EQ(decode_slot_header(slot, layout).seq, 1234u);
  std::vector<std::byte> wrong(layout.slot_bytes() - 1);
  EXPECT_THROW(init_slot(wrong, layout, 1), Error);
}

TEST(SlotSeq, MergeDropsAPartialOfAnotherOccupant) {
  // Slot 2 of a 4-slot stream: occupant 2 answered, occupant 6 took over.
  // A late partial of occupant 2 (or one addressed past occupant 6) must
  // leave the slot exactly as it was; occupant 6's own partial merges.
  SlotLayout layout{3, 4};
  const auto merge = knn_slot_merge(layout);
  std::vector<std::byte> slot(layout.slot_bytes());
  init_slot(slot, layout, 6);
  const auto before = slot;
  merge(slot, encode_slot_update(std::vector<Neighbor>{{0.1f, 1}}, layout, 0, 2));
  EXPECT_EQ(slot, before);
  merge(slot, encode_slot_update(std::vector<Neighbor>{{0.1f, 1}}, layout, 0, 10));
  EXPECT_EQ(slot, before);
  merge(slot, encode_slot_update(std::vector<Neighbor>{{0.5f, 9}}, layout, 3, 6));
  const DecodedSlot out = decode_slot(slot, layout);
  EXPECT_EQ(out.seq, 6u);
  EXPECT_EQ(out.merged_count, 1u);
  EXPECT_TRUE(out.contains_partition(3));
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].id, 9u);
}

}  // namespace
}  // namespace annsim::core
