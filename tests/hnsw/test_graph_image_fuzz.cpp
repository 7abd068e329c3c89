/// \file test_graph_image_fuzz.cpp
/// \brief Corrupt graph images are rejected with a typed error. Engine files
/// and peer-streamed replicas carry no checksum, so every byte of an
/// HnswIndex (ANN1) or SqSegment (ANQ1) image reaches the one graph decoder
/// (FlatGraph::read). Each mutant must either throw annsim::Error or decode
/// to an index whose searches run clean (the sanitizer jobs check "clean").

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/quant/sq_segment.hpp"

namespace annsim::hnsw {
namespace {

constexpr std::size_t kRows = 400;
constexpr std::size_t kDim = 16;

data::Dataset random_rows(std::size_t n, std::uint64_t seed) {
  data::Dataset d(n, kDim);
  Rng rng(seed);
  std::vector<float> row(kDim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : row) x = float(rng.normal());
    d.set_row(i, row);
  }
  return d;
}

template <typename T>
void put(std::vector<std::byte>& bytes, std::size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

// ANN1 header: magic u32, M/efc/efs u64, level_mult f64, seed u64, metric
// i32, n u64, max_level i32, entry u32; then node 0's u32 layer count, its
// layer-0 u64 neighbor count and first neighbor id.
constexpr std::size_t kMetricAt = 44;
constexpr std::size_t kEntryAt = 60;
constexpr std::size_t kNode0CountAt = 68;
constexpr std::size_t kNode0FirstAt = 76;

// ANQ1 layout up to the graph: magic u32, n u64, codec (dim u64, mins and
// scales as u64-prefixed float arrays), ids (u64-prefixed u64 array), codes
// (u64-prefixed byte array); then max_level i32, entry u32, nodes.
constexpr std::size_t kSqDimAt = 12;
constexpr std::size_t kSqIdsAt = 36 + 8 * kDim;
constexpr std::size_t kSqGraphAt = 52 + 8 * kDim + 8 * kRows + kRows * kDim;

struct Fixture {
  data::Dataset base = random_rows(kRows, 11);
  data::Dataset queries = random_rows(4, 12);
};

void search_hnsw_or_throw(std::span<const std::byte> bytes, const Fixture& f) {
  const auto index = HnswIndex::from_bytes(bytes, &f.base);
  for (std::size_t q = 0; q < f.queries.size(); ++q) {
    (void)index.search(f.queries.row(q), 5);
    (void)index.search(f.queries.row(q), 5, 32);
  }
}

void search_sq_or_throw(std::span<const std::byte> bytes,
                        const quant::SqSegmentParams& params,
                        const Fixture& f) {
  const auto seg = quant::SqSegment::from_bytes(bytes, params);
  for (std::size_t q = 0; q < f.queries.size(); ++q) {
    (void)seg->search(f.queries.row(q), 5);
    (void)seg->scan(f.queries.row(q), 5);
  }
}

/// Flip 1-3 random bytes per mutant; anything but annsim::Error escaping
/// (or a sanitizer report) fails the test.
template <typename Decode>
void mutate_and_decode(const std::vector<std::byte>& image, std::uint64_t seed,
                       const Decode& decode) {
  Rng rng(seed);
  std::size_t rejected = 0;
  constexpr int kMutants = 1500;
  for (int rep = 0; rep < kMutants; ++rep) {
    auto bytes = image;
    const std::size_t flips = 1 + rng.uniform_below(3);
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng.uniform_below(bytes.size())] ^=
          std::byte(1 + rng.uniform_below(255));
    }
    try {
      decode(bytes);
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes occur: most flips land in neighbor ids and are caught,
  // some keep the image valid.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, std::size_t(kMutants));
}

HnswParams small_hnsw(simd::Metric metric) {
  HnswParams p;
  p.M = 8;
  p.ef_construction = 40;
  p.metric = metric;
  return p;
}

TEST(GraphImageFuzz, HnswTargetedCorruptionsThrow) {
  const Fixture f;
  HnswIndex index(&f.base, small_hnsw(simd::Metric::kL2));
  index.build();
  const auto image = index.to_bytes();
  ASSERT_NO_THROW(search_hnsw_or_throw(image, f));

  auto bad = image;
  put(bad, kEntryAt, std::uint32_t{0x7FFFFFF0});
  EXPECT_THROW(search_hnsw_or_throw(bad, f), Error) << "entry point";
  bad = image;
  put(bad, kNode0FirstAt, std::uint32_t{0x7FFFFFF0});
  EXPECT_THROW(search_hnsw_or_throw(bad, f), Error) << "neighbor id";
  bad = image;
  put(bad, kMetricAt, std::int32_t{7});
  EXPECT_THROW(search_hnsw_or_throw(bad, f), Error) << "metric";
  bad = image;
  put(bad, kNode0CountAt, std::uint64_t{1} << 36);
  EXPECT_THROW(search_hnsw_or_throw(bad, f), Error) << "length prefix";
  bad = image;
  put(bad, 4, std::uint64_t{1});
  EXPECT_THROW(search_hnsw_or_throw(bad, f), Error) << "M below 2";
  bad = image;
  put(bad, kEntryAt - 4, std::int32_t{40});
  EXPECT_THROW(search_hnsw_or_throw(bad, f), Error) << "max_level";
}

TEST(GraphImageFuzz, HnswMutantsThrowOrSearchClean) {
  const Fixture f;
  for (const auto metric : {simd::Metric::kL2, simd::Metric::kCosine}) {
    HnswIndex index(&f.base, small_hnsw(metric));
    index.build();
    mutate_and_decode(index.to_bytes(), 100 + std::uint64_t(metric),
                      [&](const std::vector<std::byte>& bytes) {
                        search_hnsw_or_throw(bytes, f);
                      });
  }
}

quant::SqSegmentParams small_sq() {
  quant::SqSegmentParams p;
  p.hnsw = small_hnsw(simd::Metric::kL2);
  p.float_cache_fraction = 0.05;
  return p;
}

TEST(GraphImageFuzz, SqSegmentTargetedCorruptionsThrow) {
  const Fixture f;
  const auto params = small_sq();
  const auto image = quant::SqSegment::build(f.base, params)->to_bytes();
  ASSERT_NO_THROW(search_sq_or_throw(image, params, f));

  auto bad = image;
  put(bad, kSqGraphAt + 4, std::uint32_t{0x7FFFFFF0});
  EXPECT_THROW(search_sq_or_throw(bad, params, f), Error) << "entry point";
  bad = image;
  put(bad, kSqGraphAt + 8 + 4 + 8, std::uint32_t{0x7FFFFFF0});
  EXPECT_THROW(search_sq_or_throw(bad, params, f), Error) << "neighbor id";
  bad = image;
  put(bad, kSqDimAt, std::uint64_t{1} << 40);
  EXPECT_THROW(search_sq_or_throw(bad, params, f), Error) << "codec dim";
  // n * sizeof(element) wraps to a small byte count in both length prefixes.
  bad = image;
  put(bad, kSqIdsAt, std::uint64_t{0x40000000000000C8});
  EXPECT_THROW(search_sq_or_throw(bad, params, f), Error) << "ids length";
  const std::size_t n_cached = quant::SqSegment::from_bytes(image, params)
                                   ->cached_rows();
  bad = image;
  put(bad, bad.size() - 8 - n_cached * kDim * sizeof(float),
      std::uint64_t{0x40000000000000C8});
  EXPECT_THROW(search_sq_or_throw(bad, params, f), Error) << "cache length";
}

TEST(GraphImageFuzz, SqSegmentMutantsThrowOrSearchClean) {
  const Fixture f;
  const auto params = small_sq();
  const auto image = quant::SqSegment::build(f.base, params)->to_bytes();
  mutate_and_decode(image, 200, [&](const std::vector<std::byte>& bytes) {
    search_sq_or_throw(bytes, params, f);
  });
}

}  // namespace
}  // namespace annsim::hnsw
