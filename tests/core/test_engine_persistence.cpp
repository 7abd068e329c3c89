#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

class EnginePersistence : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("annsim_engine_" + std::to_string(::getpid()) + ".idx"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

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

  std::string path_;
};

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
  EXPECT_EQ(loaded.partition_sizes(), eng.partition_sizes());
  EXPECT_DOUBLE_EQ(loaded.build_stats().total_seconds,
                   eng.build_stats().total_seconds);
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
  // Truncate the file: decoding must throw, not crash.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW((void)DistributedAnnEngine::load(path_), Error);
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
  std::vector<char> image(std::filesystem::file_size(path_));
  {
    std::ifstream in(path_, std::ios::binary);
    in.read(image.data(), std::streamsize(image.size()));
  }
  // The file opens with the magic (u32), then n_workers, replication and
  // n_probe (u64 each): values the constructor would refuse must not load.
  struct Field {
    std::size_t at;
    std::uint64_t value;
    const char* message;
  };
  for (const Field& f : {Field{12, 0, "replication must be nonzero"},
                         Field{20, 0, "n_probe must be nonzero"},
                         Field{4, 3, "n_workers must be a power of two"}}) {
    auto bytes = image;
    std::memcpy(bytes.data() + f.at, &f.value, sizeof(f.value));
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    try {
      (void)DistributedAnnEngine::load(path_);
      ADD_FAILURE() << "loaded a file with " << f.message;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(f.message), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(EnginePersistence, KdBaselineEngineRoundTrips) {
  // A KD-routed engine persists through the same router image as a VP one.
  auto w = data::make_sift_like(1000, 20, 308);
  auto cfg = config();
  cfg.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
  cfg.local_index = LocalIndexKind::kKdTree;
  cfg.exact_routing = true;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats before_st;
  auto before = eng.search(w.queries, 10, 0, &before_st);
  eng.save(path_);
  auto loaded = DistributedAnnEngine::load(path_);
  EXPECT_EQ(loaded.config().local_index, LocalIndexKind::kKdTree);
  SearchStats after_st;
  auto after = loaded.search(w.queries, 10, 0, &after_st);
  EXPECT_EQ(before_st.total_jobs, after_st.total_jobs);
  for (std::size_t q = 0; q < before.size(); ++q) {
    EXPECT_EQ(before[q], after[q]) << "query " << q;
    EXPECT_EQ(loaded.router().route_nearest(w.queries.row(q)),
              eng.router().route_nearest(w.queries.row(q)));
  }
}

}  // namespace
}  // namespace annsim::core
