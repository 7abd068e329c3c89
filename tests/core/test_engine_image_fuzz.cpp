/// \file test_engine_image_fuzz.cpp
/// \brief Corrupt engine images are rejected with a typed error. An image
/// is a directory: `engine.bin` (checksummed as a whole) over a
/// CheckpointStore whose partition manifests carry per-file checksums. Each
/// test flips bytes of one file and loads the image through
/// DistributedAnnEngine::load, which restores every replica through the same
/// step heal() uses. Each mutant must either load, and then search clean
/// (the sanitizer jobs check "clean"), or throw annsim::Error.
///
/// Checksums would reject nearly every mutant before a decoder saw it, so
/// the manifests are re-sealed after mutation: engine.bin's trailing
/// checksum is recomputed, and a mutated partition manifest gets its new
/// checksum recorded in engine.bin. That sends the mutated bytes into the
/// engine-manifest and checkpoint-manifest decoders themselves.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/recovery/checkpoint.hpp"

namespace annsim::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSum = sizeof(std::uint64_t);
/// One engine.bin coverage entry: partition id (u32) + manifest checksum.
constexpr std::size_t kEntry = sizeof(std::uint32_t) + kSum;

std::vector<std::byte> read_file(const fs::path& path) {
  std::vector<std::byte> bytes(fs::file_size(path));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(bytes.data()), std::streamsize(bytes.size()));
  return bytes;
}

void write_file(const fs::path& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
}

/// Recompute engine.bin's trailing checksum over the bytes before it.
void reseal(std::vector<std::byte>& manifest) {
  const std::size_t body = manifest.size() - kSum;
  const std::uint64_t sum = recovery::checksum64(
      std::span<const std::byte>(manifest.data(), body));
  std::memcpy(manifest.data() + body, &sum, kSum);
}

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.n_workers = kWorkers;
  cfg.replication = 2;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 40;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  return cfg;
}

class EngineImageFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("annsim_imgfuzz_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] std::string image() const { return root_ + "/eng.idx"; }

  /// Float HNSW partitions: monolithic (v1) snapshots.
  void save_hnsw() {
    DistributedAnnEngine eng(&w_.base, small_config());
    eng.build();
    eng.save(image());
  }

  /// SQ8 segmented partitions after writes, saved with a WAL attached:
  /// segmented snapshots with a nonzero watermark (v3).
  void save_sq8() {
    auto cfg = small_config();
    cfg.local_index = LocalIndexKind::kSegmented;
    cfg.quantize_frozen = true;
    cfg.float_cache_fraction = 0.05;
    cfg.segment_delta_capacity = 32;
    cfg.wal_dir = root_ + "/wal";
    DistributedAnnEngine eng(&w_.base, cfg);
    eng.build();
    (void)eng.insert(data::make_sift_like(12, 1, 602).base);
    (void)eng.compact();
    (void)eng.insert(data::make_sift_like(6, 1, 603).base);
    const std::vector<GlobalId> dels{4, 9, 241};
    (void)eng.remove(dels);
    eng.save(image());
  }

  /// Load the image as it is on disk; a loaded engine must search clean.
  void load_and_search(bool search) const {
    auto eng = DistributedAnnEngine::load(image());
    if (search) (void)eng.search(w_.queries, 5);
  }

  /// Flip 1-3 random bytes of `file` per mutant, let `seal` re-seal the
  /// image, and load it. Returns how many mutants threw annsim::Error;
  /// anything else escaping (or a sanitizer report) fails the test.
  template <typename Seal>
  std::size_t mutate(const fs::path& file, std::uint64_t seed, int mutants,
                     bool search, const Seal& seal) const {
    const auto original = read_file(file);
    const auto engine_bin = read_file(fs::path(image()) / "engine.bin");
    Rng rng(seed);
    std::size_t rejected = 0;
    for (int rep = 0; rep < mutants; ++rep) {
      auto bytes = original;
      const std::size_t flips = 1 + rng.uniform_below(3);
      for (std::size_t i = 0; i < flips; ++i) {
        bytes[rng.uniform_below(bytes.size())] ^=
            std::byte(1 + rng.uniform_below(255));
      }
      write_file(file, bytes);
      seal(bytes);
      try {
        load_and_search(search);
      } catch (const Error&) {
        ++rejected;
      }
      write_file(fs::path(image()) / "engine.bin", engine_bin);
    }
    write_file(file, original);
    return rejected;
  }

  /// Mutate partition 0's `name` and record the mutated manifest's checksum
  /// in engine.bin (payload files need no re-seal: their checksums live in
  /// the partition manifest, which stays intact).
  std::size_t mutate_partition_file(const std::string& name,
                                    std::uint64_t seed, int mutants) const {
    const fs::path file = fs::path(image()) / "partition_0" / name;
    const bool is_manifest = name == "manifest.bin";
    return mutate(file, seed, mutants, /*search=*/true,
                  [&](const std::vector<std::byte>& bytes) {
                    if (!is_manifest) return;
                    const fs::path bin = fs::path(image()) / "engine.bin";
                    auto m = read_file(bin);
                    // Entries for partitions 0 and 1 end the manifest body.
                    const std::size_t at = m.size() - kSum - kWorkers * kEntry;
                    const std::uint64_t sum = recovery::checksum64(bytes);
                    std::memcpy(m.data() + at + sizeof(std::uint32_t), &sum,
                                kSum);
                    reseal(m);
                    write_file(bin, m);
                  });
  }

  /// Mutate engine.bin itself, re-sealed. A loaded mutant is not searched:
  /// its config may ask a search for anything (a beam of 2^40, say).
  std::size_t mutate_engine_bin(std::uint64_t seed, int mutants) const {
    const fs::path bin = fs::path(image()) / "engine.bin";
    return mutate(bin, seed, mutants, /*search=*/false,
                  [&](std::vector<std::byte>& bytes) {
                    reseal(bytes);
                    write_file(bin, bytes);
                  });
  }

  std::string root_;
  data::Workload w_ = data::make_sift_like(240, 4, 601);
};

constexpr int kMutants = 600;

TEST_F(EngineImageFuzz, EngineManifestMutantsLoadOrThrow) {
  for (const bool sq8 : {false, true}) {
    if (sq8) {
      save_sq8();
    } else {
      save_hnsw();
    }
    ASSERT_NO_THROW(load_and_search(true));
    const std::size_t rejected = mutate_engine_bin(700 + sq8, kMutants);
    // Both outcomes occur: most flips break a length, a count or a config
    // rule; some only change a seed or a counter.
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, std::size_t(kMutants));
    // Unsealed, every mutant is a checksum mismatch.
    const fs::path bin = fs::path(image()) / "engine.bin";
    const std::size_t unsealed = mutate(bin, 710 + sq8, 50, false,
                                        [](const std::vector<std::byte>&) {});
    EXPECT_EQ(unsealed, 50u);
  }
}

TEST_F(EngineImageFuzz, MonolithicSnapshotMutantsLoadOrThrow) {
  save_hnsw();
  ASSERT_TRUE(fs::exists(fs::path(image()) / "partition_0" / "data.bin"));
  const std::size_t manifest_rejected =
      mutate_partition_file("manifest.bin", 720, kMutants);
  EXPECT_GT(manifest_rejected, 0u);
  EXPECT_LT(manifest_rejected, std::size_t(kMutants));
  // Payload files are checksummed: every flip is caught.
  EXPECT_EQ(mutate_partition_file("data.bin", 721, kMutants / 5),
            std::size_t(kMutants / 5));
  EXPECT_EQ(mutate_partition_file("index.bin", 722, kMutants / 5),
            std::size_t(kMutants / 5));
}

TEST_F(EngineImageFuzz, SegmentedSnapshotMutantsLoadOrThrow) {
  save_sq8();
  std::string seg, delta;
  for (const auto& e : fs::directory_iterator(fs::path(image()) / "partition_0")) {
    const std::string name = e.path().filename().string();
    if (name.starts_with("seg_")) seg = name;
    if (name.starts_with("delta_")) delta = name;
  }
  ASSERT_FALSE(seg.empty());
  ASSERT_FALSE(delta.empty());
  const auto snap = recovery::CheckpointStore(image()).load(0);
  ASSERT_GT(snap.wal_watermark, 0u);
  const std::size_t manifest_rejected =
      mutate_partition_file("manifest.bin", 730, kMutants);
  EXPECT_GT(manifest_rejected, 0u);
  EXPECT_LT(manifest_rejected, std::size_t(kMutants));
  EXPECT_EQ(mutate_partition_file(seg, 731, kMutants / 5),
            std::size_t(kMutants / 5));
  EXPECT_EQ(mutate_partition_file(delta, 732, kMutants / 5),
            std::size_t(kMutants / 5));
}

}  // namespace
}  // namespace annsim::core
