/// Engine write-plane tests: streaming insert/delete routed through the
/// reserved control-plane tags into segmented replicas, and the interaction
/// of tombstones with the fault-tolerance machinery. The contract:
///  * insert() routes each row to every live member of its partition's
///    workgroup and assigns monotonically increasing global ids;
///  * remove() tombstones the id on every hosted replica; no search — not a
///    degraded merge, not a failover answer, not a post-heal answer — may
///    ever return it again;
///  * heal() mid-delta replays streamed rows AND tombstones, through both
///    restore paths (checkpoint store and peer streaming);
///  * compact() folds every replica's delta and never changes the live set.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/recovery/checkpoint.hpp"

namespace annsim::core {
namespace {

namespace fs = std::filesystem;

EngineConfig mutate_config(std::size_t workers = 4) {
  EngineConfig cfg;
  cfg.n_workers = workers;
  cfg.replication = 2;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.local_index = LocalIndexKind::kSegmented;
  cfg.segment_delta_capacity = 64;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  return cfg;
}

class MutateScratchDir {
 public:
  MutateScratchDir() {
    // A parameterized test is named "Case/0": the '/' would make the
    // directory a child of one nobody removes.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (fs::temp_directory_path() /
            ("annsim_mutate_" + std::to_string(::getpid()) + "_" + name))
               .string();
    fs::remove_all(dir_);
  }
  ~MutateScratchDir() { fs::remove_all(dir_); }
  [[nodiscard]] const std::string& path() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Assert no result row of `res` contains any id in `banned`.
void expect_none_of(const data::KnnResults& res,
                    const std::unordered_set<GlobalId>& banned,
                    const char* when) {
  for (std::size_t q = 0; q < res.size(); ++q) {
    for (const auto& nb : res[q]) {
      EXPECT_FALSE(banned.contains(nb.id))
          << "deleted id " << nb.id << " resurfaced in query " << q << " "
          << when;
    }
  }
}

/// Fraction of `rows` whose own vector, searched with k=1, returns the id
/// the engine assigned to it.
double self_hit_rate(DistributedAnnEngine& eng, const data::Dataset& rows,
                     const std::vector<GlobalId>& ids) {
  data::Dataset queries(rows.size(), rows.dim());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    queries.set_row(i, rows.row_span(i));
  }
  const auto res = eng.search(queries, 1);
  double hits = 0.0;
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (!res[i].empty() && res[i][0].id == ids[i]) hits += 1.0;
  }
  return hits / double(rows.size());
}

TEST(EngineMutate, InsertRemoveCompactLifecycle) {
  auto w = data::make_sift_like(600, 20, 811);
  auto cfg = mutate_config(4);
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  // Stream 40 new rows: ids continue after the base corpus, every row lands
  // on both workgroup replicas.
  auto stream = data::make_sift_like(40, 1, 812).base;
  const auto ws = eng.insert(stream);
  ASSERT_EQ(ws.assigned_ids.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(ws.assigned_ids[i], GlobalId(600 + i));
  }
  EXPECT_EQ(ws.inserted_replicas, 40u * cfg.replication);
  EXPECT_EQ(ws.dropped_rows, 0u);
  EXPECT_GT(ws.max_delta_fill, 0u);
  EXPECT_GE(self_hit_rate(eng, stream, ws.assigned_ids), 0.95);

  // Delete a slice of the *frozen* base: tombstones on every hosted copy.
  std::vector<GlobalId> dels;
  std::unordered_set<GlobalId> banned;
  for (GlobalId id = 10; id < 40; ++id) {
    dels.push_back(id);
    banned.insert(id);
  }
  const auto dws = eng.remove(dels);
  EXPECT_EQ(dws.erased_replicas, dels.size() * cfg.replication);
  expect_none_of(eng.search(w.queries, 10), banned, "after remove");

  // compact() folds every delta; the live set must be unchanged.
  EXPECT_GT(eng.compact(), 0u);
  EXPECT_EQ(eng.max_delta_fill(), 0u);
  EXPECT_GE(self_hit_rate(eng, stream, ws.assigned_ids), 0.95);
  expect_none_of(eng.search(w.queries, 10), banned, "after compact");

  // A second compact with nothing pending is a no-op.
  EXPECT_EQ(eng.compact(), 0u);
}

TEST(EngineMutate, WritesRejectNonSegmentedEngines) {
  auto w = data::make_sift_like(200, 5, 813);
  auto cfg = mutate_config(4);
  cfg.local_index = LocalIndexKind::kHnsw;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  data::Dataset one(1, w.base.dim());
  EXPECT_THROW((void)eng.insert(one), Error);
  const std::vector<GlobalId> ids{3};
  EXPECT_THROW((void)eng.remove(ids), Error);
  EXPECT_THROW((void)eng.compact(), Error);
}

TEST(EngineMutate, TombstoneNeverResurrectsAcrossFailover) {
  auto w = data::make_sift_like(800, 25, 814);
  auto cfg = mutate_config(4);
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 93;
  // Worker 1 (runtime rank 2) dies three ops into the first search batch;
  // its partitions fail over to the surviving workgroup copies.
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  // Delete across the whole id space BEFORE the kill, so every partition —
  // including the ones that will fail over — carries tombstones.
  std::vector<GlobalId> dels;
  std::unordered_set<GlobalId> banned;
  for (GlobalId id = 0; id < 800; id += 13) {
    dels.push_back(id);
    banned.insert(id);
  }
  const auto dws = eng.remove(dels);
  EXPECT_EQ(dws.erased_replicas, dels.size() * cfg.replication);

  SearchStats st;
  const auto res = eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_EQ(st.degraded_queries, 0u);  // replication 2 covered the plan
  expect_none_of(res, banned, "in the failover batch");

  // Masked-slot follow-up batches keep filtering too.
  expect_none_of(eng.search(w.queries, 10), banned, "after failover");
}

TEST(EngineMutate, DegradedAnswersNeverResurrectAtReplicationOne) {
  auto w = data::make_sift_like(600, 25, 815);
  auto cfg = mutate_config(4);
  cfg.replication = 1;  // lost partitions degrade instead of failing over
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 94;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  std::vector<GlobalId> dels;
  std::unordered_set<GlobalId> banned;
  for (GlobalId id = 0; id < 600; id += 7) {
    dels.push_back(id);
    banned.insert(id);
  }
  (void)eng.remove(dels);

  SearchStats st;
  const auto res = eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  // Degraded merges assemble partial top-k from surviving partitions only —
  // and none of those partials may contain a deleted id.
  expect_none_of(res, banned, "in degraded answers");
}

class EngineMutateHeal : public ::testing::TestWithParam<bool> {};

TEST_P(EngineMutateHeal, HealMidDeltaReplaysStreamedRowsAndTombstones) {
  const bool from_checkpoint = GetParam();
  MutateScratchDir scratch;
  auto w = data::make_sift_like(800, 25, 816);
  auto cfg = mutate_config(4);
  if (from_checkpoint) cfg.checkpoint_dir = scratch.path();
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 95;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  // Mutate mid-delta: stream rows in and tombstone a slice of the frozen
  // base, all before the kill. Nothing is compacted — the heal must carry
  // the delta and the tombstones, not just the frozen segments.
  auto stream = data::make_sift_like(32, 1, 817).base;
  const auto ws = eng.insert(stream);
  ASSERT_EQ(ws.dropped_rows, 0u);
  std::vector<GlobalId> dels;
  std::unordered_set<GlobalId> banned;
  for (GlobalId id = 5; id < 800; id += 31) {
    dels.push_back(id);
    banned.insert(id);
  }
  (void)eng.remove(dels);
  EXPECT_GT(eng.max_delta_fill(), 0u);

  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_FALSE(eng.under_replicated_partitions().empty());

  const auto heal = eng.heal();
  EXPECT_EQ(heal.workers_revived, 1u);
  if (from_checkpoint) {
    EXPECT_GT(heal.replicas_restored_from_checkpoint, 0u);
    EXPECT_EQ(heal.replicas_restored_from_peer, 0u);
  } else {
    EXPECT_EQ(heal.replicas_restored_from_checkpoint, 0u);
    EXPECT_GT(heal.replicas_restored_from_peer, 0u);
  }
  EXPECT_TRUE(heal.fully_healed());
  EXPECT_TRUE(eng.under_replicated_partitions().empty());

  // The healed replicas answer like everyone else: streamed rows found,
  // deleted ids gone — even though both lived only in the delta when the
  // snapshot/stream was taken.
  EXPECT_GE(self_hit_rate(eng, stream, ws.assigned_ids), 0.95);
  SearchStats post_st;
  const auto post = eng.search(w.queries, 10, 0, &post_st);
  EXPECT_EQ(post_st.degraded_queries, 0u);
  expect_none_of(post, banned, "after heal");

  // And the delta state survives a subsequent compaction round.
  EXPECT_GT(eng.compact(), 0u);
  expect_none_of(eng.search(w.queries, 10), banned, "after post-heal compact");
  EXPECT_GE(self_hit_rate(eng, stream, ws.assigned_ids), 0.95);
}

INSTANTIATE_TEST_SUITE_P(RestorePaths, EngineMutateHeal, ::testing::Bool(),
                         [](const auto& pinfo) {
                           return pinfo.param ? "FromCheckpoint" : "FromPeer";
                         });

TEST(EngineMutate, WritesRouteAroundDeadWorkersAndCheckpointsStayFresh) {
  MutateScratchDir scratch;
  auto w = data::make_sift_like(800, 25, 818);
  auto cfg = mutate_config(4);
  cfg.checkpoint_dir = scratch.path();
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 96;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  // Kill worker 1 via a search batch FIRST, then write: rows owned by its
  // partitions must land on the surviving workgroup member (not dropped),
  // and the post-write checkpoint must be taken from a live replica so the
  // tombstones written after the death are durable.
  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  ASSERT_EQ(st.workers_failed, 1u);

  auto stream = data::make_sift_like(24, 1, 819).base;
  const auto ws = eng.insert(stream);
  EXPECT_EQ(ws.dropped_rows, 0u);
  // Replication 2 workgroups with exactly one dead worker: some rows get
  // both copies, rows owned by the dead worker's partitions get one.
  EXPECT_LT(ws.inserted_replicas, 24u * cfg.replication + 1);
  EXPECT_GE(ws.inserted_replicas, 24u);
  std::vector<GlobalId> dels;
  std::unordered_set<GlobalId> banned;
  for (GlobalId id = 2; id < 800; id += 41) {
    dels.push_back(id);
    banned.insert(id);
  }
  (void)eng.remove(dels);

  // Heal from the checkpoints written during the outage: streamed rows and
  // tombstones must all come back.
  const auto heal = eng.heal();
  EXPECT_TRUE(heal.fully_healed());
  EXPECT_GT(heal.replicas_restored_from_checkpoint, 0u);
  EXPECT_GE(self_hit_rate(eng, stream, ws.assigned_ids), 0.95);
  SearchStats post_st;
  const auto post = eng.search(w.queries, 10, 0, &post_st);
  EXPECT_EQ(post_st.degraded_queries, 0u);
  expect_none_of(post, banned, "after heal from mid-outage checkpoints");
}

TEST(EngineMutate, SaveLoadPreservesStreamStateAndIdCursor) {
  MutateScratchDir scratch;
  auto w = data::make_sift_like(400, 10, 820);
  auto cfg = mutate_config(4);
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  auto stream = data::make_sift_like(16, 1, 821).base;
  const auto ws = eng.insert(stream);
  ASSERT_EQ(ws.assigned_ids.back(), GlobalId(415));
  const std::vector<GlobalId> dels{7, 8, 9};
  (void)eng.remove(dels);

  const std::string path = scratch.path() + "/mutated.idx";
  fs::create_directories(scratch.path());
  eng.save(path);
  auto loaded = DistributedAnnEngine::load(path);

  // The reloaded engine serves the mutated state...
  EXPECT_GE(self_hit_rate(loaded, stream, ws.assigned_ids), 0.95);
  expect_none_of(loaded.search(w.queries, 10), {7, 8, 9}, "after reload");
  // ... and keeps assigning ids where the saved engine left off.
  data::Dataset one(1, w.base.dim());
  one.set_row(0, stream.row_span(0));
  const auto ws2 = loaded.insert(one);
  ASSERT_EQ(ws2.assigned_ids.size(), 1u);
  EXPECT_EQ(ws2.assigned_ids[0], GlobalId(416));
}

}  // namespace
}  // namespace annsim::core
