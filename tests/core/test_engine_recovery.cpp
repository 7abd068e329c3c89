/// Self-healing lifecycle tests: detect -> degrade -> heal -> full coverage.
/// The contract being pinned down:
///  * a worker declared dead stays dead across batches (single source of
///    truth in ClusterHealth; workers_failed never double-counts);
///  * heal() revives dead workers and restores every replica they hosted —
///    from the checkpoint store when configured, else by streaming from a
///    surviving replica over the reliable p2p control plane;
///  * after a heal the very next batch runs at full coverage: zero degraded
///    queries and every partition back at the replication factor.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/recovery/checkpoint.hpp"

namespace annsim::core {
namespace {

namespace fs = std::filesystem;

EngineConfig recovery_config(std::size_t workers = 4) {
  EngineConfig cfg;
  cfg.n_workers = workers;
  cfg.replication = 2;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;  // deterministic per-worker op order
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  return cfg;
}

data::KnnResults fault_free_baseline(const data::Workload& w,
                                     const EngineConfig& cfg, std::size_t k) {
  EngineConfig clean = cfg;
  clean.fault = {};
  clean.result_timeout_ms = 0.0;
  clean.checkpoint_dir.clear();
  DistributedAnnEngine eng(&w.base, clean);
  eng.build();
  return eng.search(w.queries, k);
}

/// Unique per-test scratch directory, removed on teardown.
class EngineRecoveryDir {
 public:
  EngineRecoveryDir() {
    // A parameterized test is named "Case/0": the '/' would make the
    // directory a child of one nobody removes.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (fs::temp_directory_path() /
            ("annsim_recovery_" + std::to_string(::getpid()) + "_" + name))
               .string();
    fs::remove_all(dir_);
  }
  ~EngineRecoveryDir() { fs::remove_all(dir_); }
  [[nodiscard]] const std::string& path() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Expect the engine to report a fully replicated, all-alive cluster and to
/// answer the whole workload without degradation, bit-identical to `clean`.
void expect_fully_recovered(DistributedAnnEngine& eng, const data::Workload& w,
                            const data::KnnResults& clean, std::size_t k) {
  EXPECT_TRUE(eng.health().all_alive());
  EXPECT_TRUE(eng.under_replicated_partitions().empty());
  for (std::size_t p = 0; p < eng.config().n_workers; ++p) {
    EXPECT_EQ(eng.live_replicas(PartitionId(p)), eng.config().replication)
        << "partition " << p;
  }
  SearchStats st;
  auto res = eng.search(w.queries, k, 0, &st);
  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);
  ASSERT_EQ(res.size(), clean.size());
  for (std::size_t q = 0; q < clean.size(); ++q) {
    EXPECT_EQ(res[q], clean[q]) << "query " << q;
  }
}

class EngineRecoverySided : public ::testing::TestWithParam<bool> {};

TEST_P(EngineRecoverySided, HealRestoresReplicationFromCheckpoints) {
  EngineRecoveryDir scratch;
  auto w = data::make_sift_like(800, 25, 801);
  auto cfg = recovery_config(4);
  cfg.one_sided = GetParam();
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.checkpoint_dir = scratch.path();
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 90;
  // Worker 1 (runtime rank 2) delivers three results, then crashes.
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  // build() checkpoints every partition before any fault can fire.
  recovery::CheckpointStore store(scratch.path());
  EXPECT_EQ(store.partitions().size(), cfg.n_workers);

  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_EQ(st.degraded_queries, 0u);  // a live replica covered every plan
  EXPECT_FALSE(eng.health().alive(1));
  EXPECT_EQ(eng.health().dead_workers(), std::vector<std::size_t>{1});
  // Worker 1 hosted partitions 1 and 0 (its round-robin workgroup): both
  // are down to a single live copy.
  EXPECT_EQ(eng.under_replicated_partitions(),
            (std::vector<PartitionId>{0, 1}));
  EXPECT_EQ(eng.live_replicas(PartitionId(0)), 1u);
  EXPECT_EQ(eng.live_replicas(PartitionId(1)), 1u);

  const auto heal = eng.heal();
  EXPECT_EQ(heal.workers_revived, 1u);
  EXPECT_EQ(heal.replicas_restored_from_checkpoint, 2u);
  EXPECT_EQ(heal.replicas_restored_from_peer, 0u);
  EXPECT_EQ(heal.replicas_unrecoverable, 0u);
  EXPECT_TRUE(heal.fully_healed());
  EXPECT_EQ(eng.health().workers[1].deaths, 1u);
  EXPECT_EQ(eng.health().workers[1].revivals, 1u);

  expect_fully_recovered(eng, w, clean, 10);
}

TEST_P(EngineRecoverySided, HealStreamsFromSurvivorsWithoutCheckpoints) {
  auto w = data::make_sift_like(800, 25, 802);
  auto cfg = recovery_config(4);
  cfg.one_sided = GetParam();
  auto clean = fault_free_baseline(w, cfg, 10);

  // No checkpoint_dir: the only recovery path is streaming each lost
  // partition from a surviving replica over the reliable data plane.
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 91;
  cfg.fault.kills.push_back({/*rank=*/3, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_EQ(eng.health().dead_workers(), std::vector<std::size_t>{2});

  const auto heal = eng.heal();
  EXPECT_EQ(heal.workers_revived, 1u);
  EXPECT_EQ(heal.replicas_restored_from_checkpoint, 0u);
  EXPECT_EQ(heal.replicas_restored_from_peer, 2u);
  EXPECT_TRUE(heal.fully_healed());

  expect_fully_recovered(eng, w, clean, 10);
}

INSTANTIATE_TEST_SUITE_P(BothTransports, EngineRecoverySided,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "OneSided" : "TwoSided";
                         });

TEST(EngineRecovery, DeadWorkerStaysDeadWithoutDoubleCounting) {
  auto w = data::make_sift_like(800, 20, 803);
  auto cfg = recovery_config(4);
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 92;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  SearchStats st1;
  (void)eng.search(w.queries, 10, 0, &st1);
  EXPECT_EQ(st1.workers_failed, 1u);
  EXPECT_EQ(eng.health().workers[1].deaths, 1u);
  // The batch outlives the detection deadline, so live workers got their
  // beacons through (each beats before its first sleep); the master counted
  // them.
  EXPECT_GT(eng.health().workers[0].heartbeats, 0u);

  // Batch 2, no heal: the worker is skipped at dispatch — not re-discovered,
  // not re-counted — and replicas still cover every plan.
  SearchStats st2;
  (void)eng.search(w.queries, 10, 0, &st2);
  EXPECT_EQ(st2.workers_failed, 0u);
  EXPECT_EQ(st2.degraded_queries, 0u);
  EXPECT_EQ(eng.health().workers[1].deaths, 1u);
  EXPECT_FALSE(eng.health().alive(1));
}

TEST(EngineRecovery, HealOnHealthyClusterIsNoOp) {
  auto w = data::make_sift_like(600, 10, 804);
  auto cfg = recovery_config(4);
  cfg.result_timeout_ms = 100.0;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  const auto heal = eng.heal();
  EXPECT_EQ(heal.workers_revived, 0u);
  EXPECT_EQ(heal.replicas_restored(), 0u);
  EXPECT_TRUE(heal.fully_healed());
  EXPECT_TRUE(eng.health().all_alive());
}

TEST(EngineRecovery, RejoinUnderContinuedChaos) {
  // The revived worker rejoins a cluster whose fabric is still lossy. Any
  // dropped message eventually kills its sender (the master's deadline-based
  // detector cannot tell a lost result from a dead worker), so a chaos batch
  // may take down *several* workers, not just the scheduled one. Full
  // mirroring (replication == n_workers) makes the test immune to that
  // nondeterminism: every survivor holds every partition, so failover absorbs
  // any death set short of the whole cluster, and heal() always has a live
  // peer to stream from. What stays under test is exactly the satellite
  // contract: revive while drop_probability > 0, re-replication completing
  // over the reliable kTagReplica fabric, and zero degraded queries in every
  // subsequent batch.
  auto w = data::make_sift_like(800, 20, 805);
  auto cfg = recovery_config(4);
  cfg.replication = 4;  // full mirroring: deaths cost retries, never coverage
  cfg.result_timeout_ms = 150.0;
  cfg.fault.seed = 93;
  cfg.fault.drop_probability = 0.005;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  auto clean = fault_free_baseline(w, cfg, 10);
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  SearchStats st1;
  (void)eng.search(w.queries, 10, 0, &st1);
  EXPECT_GE(st1.workers_failed, 1u);
  EXPECT_FALSE(eng.health().alive(1));
  ASSERT_LT(eng.health().dead_workers().size(), 4u);  // someone survived

  for (int round = 0; round < 3; ++round) {
    const auto heal = eng.heal();
    if (round == 0) {
      // The scheduled kill definitely fired, so the first heal revives at
      // least worker 1 and streams back its full complement of replicas —
      // there is no checkpoint dir, peer streaming is the only path.
      EXPECT_GE(heal.workers_revived, 1u);
      EXPECT_GE(heal.replicas_restored_from_peer, cfg.replication);
      EXPECT_EQ(heal.replicas_restored_from_checkpoint, 0u);
    }
    EXPECT_TRUE(heal.fully_healed()) << "round " << round;
    EXPECT_TRUE(eng.health().all_alive()) << "round " << round;
    EXPECT_TRUE(eng.under_replicated_partitions().empty()) << "round " << round;

    // Post-heal batch under the same drop probability: drops may cost
    // retries and even fresh deaths, but never a query's full plan.
    SearchStats st;
    auto res = eng.search(w.queries, 10, 0, &st);
    EXPECT_EQ(st.degraded_queries, 0u) << "round " << round;
    ASSERT_EQ(res.size(), clean.size());
    for (std::size_t q = 0; q < clean.size(); ++q) {
      EXPECT_EQ(res[q], clean[q]) << "round " << round << " query " << q;
    }
  }
}

TEST(EngineRecovery, LoadWithCheckpointDirSnapshotsEveryPartition) {
  EngineRecoveryDir scratch;
  const std::string idx = scratch.path() + ".idx";
  auto w = data::make_sift_like(800, 10, 806);
  {
    DistributedAnnEngine eng(&w.base, recovery_config(4));
    eng.build();
    eng.save(idx);
  }
  auto loaded = DistributedAnnEngine::load(idx, scratch.path());
  EXPECT_EQ(loaded.config().checkpoint_dir, scratch.path());
  recovery::CheckpointStore store(scratch.path());
  EXPECT_EQ(store.partitions(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(loaded.health().all_alive());
  fs::remove_all(idx);
}

TEST(EngineRecovery, HealIsSeedDeterministic) {
  auto w = data::make_sift_like(800, 15, 807);
  auto cfg = recovery_config(4);
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 94;
  cfg.fault.kills.push_back({/*rank=*/4, /*after_ops=*/2, mpi::kNeverFires});

  auto run_once = [&] {
    DistributedAnnEngine eng(&w.base, cfg);
    eng.build();
    (void)eng.search(w.queries, 8);
    (void)eng.heal();
    return eng.search(w.queries, 8);
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q], b[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace annsim::core
