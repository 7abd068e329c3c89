#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/recovery/checkpoint.hpp"

namespace annsim::core {
namespace {

class EnginePersistence : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("annsim_engine_" + std::to_string(::getpid()) + ".idx"))
                .string();
  }
  void TearDown() override { std::filesystem::remove_all(path_); }

  static EngineConfig config() {
    EngineConfig cfg;
    cfg.n_workers = 8;
    cfg.replication = 2;
    cfg.n_probe = 3;
    cfg.threads_per_worker = 1;
    cfg.hnsw.M = 8;
    cfg.hnsw.ef_construction = 60;
    cfg.partitioner.vantage_candidates = 8;
    cfg.partitioner.vantage_sample = 64;
    return cfg;
  }

  static EngineConfig sq8_config() {
    auto cfg = config();
    cfg.n_workers = 4;
    cfg.local_index = LocalIndexKind::kSegmented;
    cfg.quantize_frozen = true;
    cfg.segment_delta_capacity = 64;
    return cfg;
  }

  static EngineConfig kd_config() {
    auto cfg = config();
    cfg.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
    cfg.local_index = LocalIndexKind::kExactTree;
    cfg.exact_routing = true;
    return cfg;
  }

  std::string path_;
};

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  std::vector<std::byte> bytes(std::filesystem::file_size(path));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(bytes.data()), std::streamsize(bytes.size()));
  return bytes;
}

void write_file(const std::filesystem::path& path,
                const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
}

void flip_middle_byte(const std::filesystem::path& path) {
  auto bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= std::byte{0x20};
  write_file(path, bytes);
}

/// Recompute engine.bin's trailing checksum over the bytes before it.
void reseal(std::vector<std::byte>& manifest) {
  const std::size_t body = manifest.size() - sizeof(std::uint64_t);
  const std::uint64_t sum = recovery::checksum64(
      std::span<const std::byte>(manifest.data(), body));
  std::memcpy(manifest.data() + body, &sum, sizeof(sum));
}

/// Every file under `root`, by relative path.
std::map<std::string, std::vector<std::byte>> read_tree(
    const std::filesystem::path& root) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) {
      out[std::filesystem::relative(e.path(), root).string()] =
          read_file(e.path());
    }
  }
  return out;
}

TEST_F(EnginePersistence, SaveLoadRoundTripPreservesResults) {
  auto w = data::make_sift_like(2000, 40, 301);
  DistributedAnnEngine eng(&w.base, config());
  eng.build();
  auto before = eng.search(w.queries, 10);

  eng.save(path_);
  auto loaded = DistributedAnnEngine::load(path_);
  EXPECT_TRUE(loaded.built());
  auto after = loaded.search(w.queries, 10);

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t q = 0; q < before.size(); ++q) {
    EXPECT_EQ(before[q], after[q]) << "query " << q;
  }
}

TEST_F(EnginePersistence, LoadedEngineRetainsConfigAndStats) {
  auto w = data::make_sift_like(1000, 5, 302);
  DistributedAnnEngine eng(&w.base, config());
  eng.build();
  eng.save(path_);

  auto loaded = DistributedAnnEngine::load(path_);
  EXPECT_EQ(loaded.config().n_workers, 8u);
  EXPECT_EQ(loaded.config().replication, 2u);
  EXPECT_EQ(loaded.config().n_probe, 3u);
  EXPECT_EQ(loaded.config().hnsw.M, 8u);
  EXPECT_EQ(loaded.config().partitioner.tree,
            vptree::PartitionTreeKind::kVpTree);
  EXPECT_EQ(loaded.config().partitioner.vantage_candidates, 8u);
  EXPECT_EQ(loaded.config().partitioner.vantage_sample, 64u);
  EXPECT_EQ(loaded.config().partitioner.seed, eng.config().partitioner.seed);
  EXPECT_EQ(loaded.partition_sizes(), eng.partition_sizes());
  EXPECT_EQ(loaded.router().n_partitions(), 8u);
}

TEST_F(EnginePersistence, LoadedEngineWorksWithoutOriginalCorpus) {
  data::KnnResults results;
  data::Dataset queries;
  {
    auto w = data::make_sift_like(1500, 20, 303);
    queries = w.base.slice(0, 20);  // copies, independent of w
    for (std::size_t i = 0; i < queries.size(); ++i) queries.set_id(i, i);
    DistributedAnnEngine eng(&w.base, config());
    eng.build();
    eng.save(path_);
    // w.base is destroyed here; the loaded engine must not need it.
  }
  auto loaded = DistributedAnnEngine::load(path_);
  results = loaded.search(queries, 5);
  ASSERT_EQ(results.size(), 20u);
  // Base points queried against the index find themselves at distance 0.
  for (std::size_t q = 0; q < results.size(); ++q) {
    ASSERT_FALSE(results[q].empty());
    EXPECT_NEAR(results[q][0].dist, 0.f, 1e-3f) << "query " << q;
  }
}

TEST_F(EnginePersistence, SaveUnbuiltThrows) {
  auto w = data::make_sift_like(500, 5, 304);
  DistributedAnnEngine eng(&w.base, config());
  EXPECT_THROW(eng.save(path_), Error);
}

TEST_F(EnginePersistence, LoadMissingFileThrows) {
  EXPECT_THROW((void)DistributedAnnEngine::load(path_ + ".nope"), Error);
}

TEST_F(EnginePersistence, LoadRejectsCorruptFile) {
  auto w = data::make_sift_like(500, 5, 305);
  DistributedAnnEngine eng(&w.base, config());
  eng.build();
  eng.save(path_);
  const std::filesystem::path root(path_);
  // A flipped byte in a partition's index: its checksum catches it.
  flip_middle_byte(root / "partition_3" / "index.bin");
  EXPECT_THROW((void)DistributedAnnEngine::load(path_), Error);
  // A truncated manifest: decoding must throw, not crash.
  eng.save(path_);
  const auto manifest = root / "engine.bin";
  std::filesystem::resize_file(manifest,
                               std::filesystem::file_size(manifest) / 2);
  EXPECT_THROW((void)DistributedAnnEngine::load(path_), Error);
  // A partition from another save: the engine manifest names each
  // snapshot by its manifest checksum.
  eng.save(path_);
  const std::string other = path_ + ".other";
  {
    auto w2 = data::make_sift_like(500, 5, 310);
    DistributedAnnEngine eng2(&w2.base, config());
    eng2.build();
    eng2.save(other);
  }
  std::filesystem::remove_all(root / "partition_2");
  std::filesystem::rename(std::filesystem::path(other) / "partition_2",
                          root / "partition_2");
  std::filesystem::remove_all(other);
  try {
    (void)DistributedAnnEngine::load(path_);
    ADD_FAILURE() << "loaded an image mixing two saves";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("is not the snapshot"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(EnginePersistence, LoadRejectsThePreviousImageFormat) {
  // The previous format was one "ANIF" file; it must fail with an error
  // that names it rather than decode.
  {
    std::ofstream f(path_, std::ios::binary);
    const std::uint32_t old_magic = 0x414E4946;
    f.write(reinterpret_cast<const char*>(&old_magic), sizeof(old_magic));
    f.write("rest of an old image", 20);
  }
  try {
    (void)DistributedAnnEngine::load(path_);
    ADD_FAILURE() << "loaded an image in the previous format";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("\"ANIF\""), std::string::npos)
        << e.what();
  }
  // A version-1 manifest (its config still carried a dispatch strategy) and
  // a version-2 one (and a result transport) must fail with an error that
  // names their version, not decode shifted.
  std::filesystem::remove(path_);
  auto w = data::make_sift_like(500, 5, 312);
  DistributedAnnEngine eng(&w.base, config());
  eng.build();
  eng.save(path_);
  const std::string manifest = path_ + "/engine.bin";
  const auto image = read_file(manifest);
  for (const std::uint32_t version : {1u, 2u}) {
    auto bytes = image;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));  // after magic
    reseal(bytes);
    write_file(manifest, bytes);
    try {
      (void)DistributedAnnEngine::load(path_);
      ADD_FAILURE() << "loaded a version-" << version << " engine image";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported engine manifest "
                                           "version " +
                                           std::to_string(version) + " "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(EnginePersistence, SaveRefusesToReplaceADirectoryThatIsNotAnImage) {
  auto w = data::make_sift_like(500, 5, 311);
  DistributedAnnEngine eng(&w.base, config());
  eng.build();
  std::filesystem::create_directories(path_);
  { std::ofstream(path_ + "/keep.txt") << "not an engine image"; }
  EXPECT_THROW(eng.save(path_), Error);
  EXPECT_TRUE(std::filesystem::exists(path_ + "/keep.txt"));
}

TEST_F(EnginePersistence, BruteForceEngineRoundTrips) {
  auto w = data::make_deep_like(800, 10, 306);
  auto cfg = config();
  cfg.local_index = LocalIndexKind::kBruteForce;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto before = eng.search(w.queries, 5);
  eng.save(path_);
  auto loaded = DistributedAnnEngine::load(path_);
  EXPECT_EQ(loaded.config().local_index, LocalIndexKind::kBruteForce);
  auto after = loaded.search(w.queries, 5);
  for (std::size_t q = 0; q < before.size(); ++q) {
    EXPECT_EQ(before[q], after[q]);
  }
}

TEST_F(EnginePersistence, LoadValidatesTheDecodedConfig) {
  auto w = data::make_sift_like(800, 5, 307);
  auto cfg = config();
  cfg.n_workers = 4;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  eng.save(path_);
  const std::string manifest = path_ + "/engine.bin";
  const auto image = read_file(manifest);
  // engine.bin opens with the magic and version (u32 each), then n_workers,
  // replication and n_probe (u64 each), the exact_routing flag byte,
  // threads_per_worker (u64), the local index kind byte at 41 and the split
  // rule byte at 42; it ends with a checksum of the rest, re-sealed here so
  // only the config checks can refuse. Values the
  // constructor would refuse must not load. Bytes 2 and 5 named the retired
  // VP- and KD-tree local kinds.
  struct Field {
    std::size_t at;
    std::uint64_t value;
    std::size_t width;
    const char* message;
  };
  for (const Field& f :
       {Field{16, 0, 8, "replication must be nonzero"},
        Field{24, 0, 8, "n_probe must be nonzero"},
        Field{8, 3, 8, "n_workers must be a power of two"},
        Field{33, 0, 8, "threads_per_worker must be nonzero"},
        Field{41, 2, 1, "local_index 2 is not a local index kind"},
        Field{41, 5, 1, "local_index 5 is not a local index kind"},
        Field{42, 2, 1, "partitioner.tree 2 is not a split rule"}}) {
    auto bytes = image;
    std::memcpy(bytes.data() + f.at, &f.value, f.width);
    reseal(bytes);
    write_file(manifest, bytes);
    try {
      (void)DistributedAnnEngine::load(path_);
      ADD_FAILURE() << "loaded a manifest with " << f.message;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(f.message), std::string::npos)
          << e.what();
    }
  }
  // Without the re-seal, any edit is a checksum mismatch.
  auto bytes = image;
  bytes[9] ^= std::byte{1};
  write_file(manifest, bytes);
  EXPECT_THROW((void)DistributedAnnEngine::load(path_), Error);
}

TEST_F(EnginePersistence, KdBaselineEngineRoundTrips) {
  // A KD-routed engine persists through the same router image as a VP one.
  auto w = data::make_sift_like(1000, 20, 308);
  auto cfg = config();
  cfg.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
  cfg.local_index = LocalIndexKind::kExactTree;
  cfg.exact_routing = true;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats before_st;
  auto before = eng.search(w.queries, 10, 0, &before_st);
  eng.save(path_);
  auto loaded = DistributedAnnEngine::load(path_);
  EXPECT_EQ(loaded.config().local_index, LocalIndexKind::kExactTree);
  EXPECT_EQ(loaded.config().partitioner.tree,
            vptree::PartitionTreeKind::kKdTree);
  SearchStats after_st;
  auto after = loaded.search(w.queries, 10, 0, &after_st);
  EXPECT_EQ(before_st.total_jobs, after_st.total_jobs);
  for (std::size_t q = 0; q < before.size(); ++q) {
    EXPECT_EQ(before[q], after[q]) << "query " << q;
    EXPECT_EQ(loaded.router().route_nearest(w.queries.row(q)),
              eng.router().route_nearest(w.queries.row(q)));
  }
}

/// The SQ8 engines' writes: a round of inserts, a delete of two built and
/// two streamed rows, a second round, a compaction. Returns the deleted ids.
std::vector<GlobalId> mutate(DistributedAnnEngine& eng, std::uint64_t seed,
                             std::vector<GlobalId>& inserted) {
  const auto a = eng.insert(data::make_sift_like(24, 1, seed).base);
  const std::vector<GlobalId> dels{3, 17, a.assigned_ids[0],
                                   a.assigned_ids[5]};
  (void)eng.remove(dels);
  const auto b = eng.insert(data::make_sift_like(12, 1, seed + 1).base);
  (void)eng.compact();
  inserted = a.assigned_ids;
  inserted.insert(inserted.end(), b.assigned_ids.begin(),
                  b.assigned_ids.end());
  return dels;
}

TEST_F(EnginePersistence, TwoIdenticalBuildsSaveIdenticalBytes) {
  // Build timings are not content: equal engines save equal bytes, for the
  // float HNSW, SQ8-segmented-after-writes and KD exact configurations.
  auto w = data::make_sift_like(1200, 5, 312);
  const auto save_one = [&](const EngineConfig& cfg, const std::string& at) {
    DistributedAnnEngine eng(&w.base, cfg);
    eng.build();
    if (cfg.local_index == LocalIndexKind::kSegmented) {
      std::vector<GlobalId> inserted;
      (void)mutate(eng, 313, inserted);
    }
    eng.save(at);
  };
  const std::string twin = path_ + ".twin";
  for (const EngineConfig& cfg : {config(), sq8_config(), kd_config()}) {
    save_one(cfg, path_);
    save_one(cfg, twin);
    const auto a = read_tree(path_);
    EXPECT_EQ(a, read_tree(twin))
        << local_index_kind_name(cfg.local_index);
    EXPECT_EQ(a.count("engine.bin"), 1u);
  }
  std::filesystem::remove_all(twin);
}

TEST_F(EnginePersistence, ImageHoldsEachPartitionOnce) {
  auto w = data::make_sift_like(1200, 5, 314);
  std::uint64_t bytes_r1 = 0;
  for (const std::size_t r : {1u, 2u, 3u}) {
    auto cfg = config();
    cfg.replication = r;
    DistributedAnnEngine eng(&w.base, cfg);
    eng.build();
    eng.save(path_);
    const auto tree = read_tree(path_);
    std::uint64_t bytes = 0;
    std::size_t indexes = 0;
    for (const auto& [name, content] : tree) {
      bytes += content.size();
      indexes += name.ends_with("index.bin") ? 1 : 0;
    }
    EXPECT_EQ(indexes, cfg.n_workers) << "r=" << r;
    if (r == 1) bytes_r1 = bytes;
    EXPECT_LE(double(bytes), 1.05 * double(bytes_r1)) << "r=" << r;
  }
}

TEST_F(EnginePersistence, SegmentedEngineRoundTripsAfterWrites) {
  auto w = data::make_sift_like(1200, 30, 315);
  DistributedAnnEngine eng(&w.base, sq8_config());
  eng.build();
  std::vector<GlobalId> inserted;
  const auto dels = mutate(eng, 316, inserted);
  const auto before = eng.search(w.queries, 10);
  eng.save(path_);
  auto loaded = DistributedAnnEngine::load(path_);
  const auto after = loaded.search(w.queries, 10);
  for (std::size_t q = 0; q < before.size(); ++q) {
    EXPECT_EQ(before[q], after[q]) << "query " << q;
  }
  for (const GlobalId id : inserted) {
    EXPECT_EQ(loaded.contains(id), eng.contains(id)) << "id " << id;
  }
  for (const GlobalId id : dels) {
    EXPECT_FALSE(loaded.contains(id)) << "deleted id " << id;
  }
}

TEST_F(EnginePersistence, SaveDuringWritesCapturesWholeRounds) {
  // save() waits for the write round in flight: every image holds all rows
  // of a round or none of them, while insert() and compact() run on
  // another thread.
  auto w = data::make_sift_like(600, 5, 317);
  auto cfg = sq8_config();
  cfg.quantize_frozen = false;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  constexpr int kRounds = 8;
  constexpr int kSaves = 4;
  std::vector<std::vector<GlobalId>> rounds(kRounds);
  std::thread writer([&] {
    for (int i = 0; i < kRounds; ++i) {
      rounds[std::size_t(i)] =
          eng.insert(data::make_sift_like(6, 1, 400 + std::uint64_t(i)).base)
              .assigned_ids;
      if (i % 3 == 2) (void)eng.compact();
    }
  });
  for (int i = 0; i < kSaves; ++i) {
    eng.save(path_ + "." + std::to_string(i));
  }
  writer.join();
  for (int i = 0; i < kSaves; ++i) {
    const std::string at = path_ + "." + std::to_string(i);
    auto loaded = DistributedAnnEngine::load(at);
    for (const auto& round : rounds) {
      std::size_t present = 0;
      for (const GlobalId id : round) present += loaded.contains(id) ? 1 : 0;
      EXPECT_TRUE(present == 0 || present == round.size())
          << "image " << i << " holds " << present << " of a round's "
          << round.size() << " rows";
    }
    std::filesystem::remove_all(at);
  }
}

TEST_F(EnginePersistence, LoadRestoresTheReplicasOfAWorkerDeadAtSave) {
  // Every workgroup member gets its replica back from the partition's one
  // snapshot, including a worker that was dead when the engine saved.
  auto w = data::make_sift_like(800, 20, 318);
  auto cfg = config();
  cfg.n_workers = 4;
  DistributedAnnEngine clean(&w.base, cfg);
  clean.build();
  const auto want = clean.search(w.queries, 10);

  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 98;
  // Worker 1 (runtime rank 2) dies three ops into the first search batch.
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  ASSERT_EQ(st.workers_failed, 1u);
  ASSERT_FALSE(eng.under_replicated_partitions().empty());
  eng.save(path_);

  auto loaded = DistributedAnnEngine::load(path_);
  EXPECT_TRUE(loaded.health().all_alive());
  EXPECT_TRUE(loaded.under_replicated_partitions().empty());
  const auto got = loaded.search(w.queries, 10);
  for (std::size_t q = 0; q < want.size(); ++q) {
    EXPECT_EQ(got[q], want[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace annsim::core
