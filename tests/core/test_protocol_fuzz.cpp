/// Failure injection: malformed wire payloads must raise annsim::Error —
/// never crash, hang, or silently mis-decode. The decoders guard the
/// master/worker protocol against truncated or corrupted messages.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/core/protocol.hpp"

namespace annsim::core {
namespace {

std::vector<std::byte> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte(rng.uniform_below(256));
  return out;
}

// Bounds for the decoders: a batch of 16 queries over 8 partitions, 4-d.
const BatchBounds kBounds{16, 8, 4};

template <typename Decoder>
void expect_error_or_valid(const std::vector<std::byte>& bytes,
                           Decoder decode) {
  try {
    (void)decode(bytes);  // random bytes may decode by luck; that's fine
  } catch (const Error&) {
    // expected for almost all inputs
  }
}

TEST(ProtocolFuzz, QueryJobRandomBytesNeverCrash) {
  Rng rng(1);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(64), rng);
    expect_error_or_valid(
        bytes, [](const auto& b) { return decode_query_job(b, kBounds); });
  }
}

TEST(ProtocolFuzz, LocalResultRandomBytesNeverCrash) {
  Rng rng(2);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(64), rng);
    expect_error_or_valid(
        bytes, [](const auto& b) { return decode_local_result(b, kBounds); });
  }
}

TEST(ProtocolFuzz, TruncatedQueryJobThrows) {
  QueryJob job;
  job.partition = 0;
  job.query = {1.f, 2.f, 3.f, 4.f};
  const auto full = encode_query_job(job);
  EXPECT_NO_THROW((void)decode_query_job(full, kBounds));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::byte> truncated(full.begin(),
                                     full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_query_job(truncated, kBounds), Error)
        << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, TruncatedLocalResultThrows) {
  LocalResult r;
  r.neighbors = {{1.f, 1}, {2.f, 2}};
  const auto full = encode_local_result(r);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::byte> truncated(full.begin(),
                                     full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_local_result(truncated, kBounds), Error)
        << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, OversizedLengthFieldThrows) {
  // A hostile length prefix claiming 2^60 floats must be rejected by bounds
  // checking, not attempted.
  BinaryWriter w;
  w.write(std::uint32_t{1});            // query_id
  w.write(PartitionId{0});              // partition
  w.write(std::uint32_t{10});           // k
  w.write(std::uint32_t{0});            // ef
  w.write(std::uint32_t{0});            // reply_to
  w.write(std::uint32_t{1});            // fanout
  w.write(std::uint64_t{1} << 60);      // vector length
  EXPECT_THROW((void)decode_query_job(w.bytes(), kBounds), Error);
}

// ---- ids outside the batch ------------------------------------------------
//
// A well-formed message may still name a query, partition or fan-out the
// batch does not have, or carry a query vector of the wrong dimension. The
// receiver indexes batch-sized arrays with those ids, so each decoder must
// reject them with annsim::Error and accept the last valid value.

QueryJob edge_job() {
  QueryJob job;
  job.query_id = std::uint32_t(kBounds.n_queries - 1);
  job.partition = PartitionId(kBounds.n_partitions - 1);
  job.k = 10;
  job.fanout = std::uint32_t(kBounds.n_partitions);
  job.query.assign(kBounds.dim, 0.5f);
  return job;
}

TEST(ProtocolFuzz, QueryJobOutsideTheBatchThrows) {
  EXPECT_NO_THROW((void)decode_query_job(encode_query_job(edge_job()), kBounds));
  auto expect_rejected = [](const QueryJob& job, const char* what) {
    EXPECT_THROW((void)decode_query_job(encode_query_job(job), kBounds), Error)
        << what;
  };
  QueryJob j = edge_job();
  j.query_id = std::uint32_t(kBounds.n_queries);
  expect_rejected(j, "query id == n_queries");
  j = edge_job();
  j.partition = PartitionId(kBounds.n_partitions);
  expect_rejected(j, "partition == n_partitions");
  j = edge_job();
  j.partition = kInvalidPartition;
  expect_rejected(j, "invalid partition");
  j = edge_job();
  j.fanout = 0;
  expect_rejected(j, "fanout 0");
  j = edge_job();
  j.fanout = std::uint32_t(kBounds.n_partitions + 1);
  expect_rejected(j, "fanout > n_partitions");
  j = edge_job();
  j.query.pop_back();
  expect_rejected(j, "short query vector");
  j = edge_job();
  j.query.push_back(1.f);
  expect_rejected(j, "long query vector");
  j = edge_job();
  j.query.clear();
  expect_rejected(j, "empty query vector");
}

TEST(ProtocolFuzz, LocalResultOutsideTheBatchThrows) {
  LocalResult r;
  r.query_id = std::uint32_t(kBounds.n_queries - 1);
  r.partition = PartitionId(kBounds.n_partitions - 1);
  r.neighbors = {{1.f, 1}};
  EXPECT_NO_THROW((void)decode_local_result(encode_local_result(r), kBounds));
  LocalResult bad = r;
  bad.query_id = std::uint32_t(kBounds.n_queries);
  EXPECT_THROW((void)decode_local_result(encode_local_result(bad), kBounds),
               Error);
  bad = r;
  bad.partition = PartitionId(kBounds.n_partitions);
  EXPECT_THROW((void)decode_local_result(encode_local_result(bad), kBounds),
               Error);
}

TEST(ProtocolFuzz, OwnerAnswerBoundsItsCountNotAPartition) {
  // An owner's answer carries |F(q)| in `partition`: all partitions merged
  // is valid, one more is not, and the query id is bounded as usual.
  LocalResult r;
  r.query_id = std::uint32_t(kBounds.n_queries - 1);
  r.partition = PartitionId(kBounds.n_partitions);
  EXPECT_NO_THROW((void)decode_owner_answer(encode_local_result(r), kBounds));
  EXPECT_THROW((void)decode_local_result(encode_local_result(r), kBounds),
               Error);
  LocalResult bad = r;
  bad.partition = PartitionId(kBounds.n_partitions + 1);
  EXPECT_THROW((void)decode_owner_answer(encode_local_result(bad), kBounds),
               Error);
  bad = r;
  bad.query_id = std::uint32_t(kBounds.n_queries);
  EXPECT_THROW((void)decode_owner_answer(encode_local_result(bad), kBounds),
               Error);
}

TEST(ProtocolFuzz, SlotFullNoticeIsBoundedAndExact) {
  const auto last = std::uint32_t(kBounds.n_queries - 1);
  EXPECT_EQ(decode_slot_full(encode_slot_full(last), kBounds), last);
  EXPECT_THROW((void)decode_slot_full(
                   encode_slot_full(std::uint32_t(kBounds.n_queries)), kBounds),
               Error);
  const auto full = encode_slot_full(last);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::byte> truncated(full.begin(),
                                           full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_slot_full(truncated, kBounds), Error)
        << "cut=" << cut;
  }
  auto padded = full;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)decode_slot_full(padded, kBounds), Error);

  Rng rng(3);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(8), rng);
    expect_error_or_valid(
        bytes, [](const auto& b) { return decode_slot_full(b, kBounds); });
  }
}

TEST(ProtocolFuzz, SlotDecodeRejectsShortBuffers) {
  const SlotLayout layout{10, 64};
  std::vector<std::byte> tiny(layout.slot_bytes() - 1);
  EXPECT_THROW((void)decode_slot(tiny, layout), Error);
  std::vector<std::byte> headless(layout.header_bytes() - 1);
  EXPECT_THROW((void)decode_slot_header(headless, layout), Error);
}

TEST(ProtocolFuzz, MergeOpRejectsMismatchedRegions) {
  const SlotLayout layout{4, 64};
  const auto merge = knn_slot_merge(layout);
  std::vector<std::byte> slot(layout.slot_bytes());
  std::vector<std::byte> short_origin(layout.slot_bytes() - 8);
  EXPECT_THROW(merge(slot, short_origin), Error);
  std::vector<std::byte> short_target(layout.slot_bytes() - 8);
  std::vector<std::byte> origin(layout.slot_bytes());
  EXPECT_THROW(merge(short_target, origin), Error);
}

// ---- seeded byte mutation over the slot format ---------------------------

bool same_bits(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i].dist) !=
            std::bit_cast<std::uint32_t>(b[i].dist) ||
        a[i].id != b[i].id) {
      return false;
    }
  }
  return true;
}

/// Either `bytes` fails to decode with annsim::Error, or it decodes, the
/// header decoder agrees, and writing the decoded value back into a slot
/// decodes to the same value again.
void expect_round_trip_or_error(std::span<const std::byte> bytes,
                                const SlotLayout& layout) {
  DecodedSlot slot;
  try {
    slot = decode_slot(bytes, layout);
  } catch (const Error&) {
    EXPECT_THROW((void)decode_slot_header(bytes, layout), Error);
    return;
  }
  const SlotHeader header = decode_slot_header(bytes, layout);
  EXPECT_EQ(header.merged_count, slot.merged_count);
  EXPECT_EQ(header.mask, slot.mask);

  std::vector<std::byte> again(layout.slot_bytes());
  std::memcpy(again.data(), &slot.merged_count, sizeof(slot.merged_count));
  std::memcpy(again.data() + 8, slot.mask.data(),
              slot.mask.size() * sizeof(std::uint64_t));
  std::vector<Neighbor> padded(layout.k);  // +inf sentinels
  std::copy(slot.neighbors.begin(), slot.neighbors.end(), padded.begin());
  std::memcpy(again.data() + layout.header_bytes(), padded.data(),
              layout.k * sizeof(Neighbor));
  const DecodedSlot back = decode_slot(again, layout);
  EXPECT_EQ(back.merged_count, slot.merged_count);
  EXPECT_EQ(back.mask, slot.mask);
  EXPECT_TRUE(same_bits(back.neighbors, slot.neighbors));
}

class SlotMutationFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlotMutationFuzz, MutatedSlotsRoundTripOrThrow) {
  const std::size_t P = GetParam();  // 64: one mask word, 65: two
  const SlotLayout layout{4, P};
  const auto merge = knn_slot_merge(layout);
  // A valid slot with the first and the last partition merged (a bit in
  // each mask word), and a valid update for a third partition.
  std::vector<std::byte> slot(layout.slot_bytes());
  merge(slot, encode_slot_update(std::vector<Neighbor>{{1.f, 1}, {3.f, 3}},
                                 layout, 0));
  merge(slot, encode_slot_update(std::vector<Neighbor>{{2.f, 2}}, layout,
                                 PartitionId(P - 1)));
  const auto update =
      encode_slot_update(std::vector<Neighbor>{{0.5f, 9}}, layout, 1);

  Rng rng(P);
  for (int rep = 0; rep < 4000; ++rep) {
    const bool mutate_slot = rep % 2 == 0;
    auto bytes = mutate_slot ? slot : update;
    const std::size_t flips = 1 + rng.uniform_below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.uniform_below(bytes.size())] ^=
          std::byte(1 + rng.uniform_below(255));
    }
    expect_round_trip_or_error(bytes, layout);

    // The mutated region as merge target (taking the valid update) or as
    // merge origin (into the valid slot): a merge either throws and leaves
    // the target untouched, or leaves a slot that round-trips.
    auto target = mutate_slot ? bytes : slot;
    const auto before = target;
    try {
      merge(target, mutate_slot ? update : bytes);
    } catch (const Error&) {
      EXPECT_EQ(target, before) << "rep " << rep;
      continue;
    }
    EXPECT_NO_THROW((void)decode_slot(target, layout)) << "rep " << rep;
    expect_round_trip_or_error(target, layout);
  }
}

INSTANTIATE_TEST_SUITE_P(MaskWords, SlotMutationFuzz,
                         ::testing::Values(std::size_t{64}, std::size_t{65}));

}  // namespace
}  // namespace annsim::core
