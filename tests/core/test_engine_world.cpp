/// The engine's persistent world: each rank cohort starts once and lives as
/// long as the engine, every operation's figures are its own, moved and
/// loaded engines serve, fault state carries across operations, and a
/// failing operation leaves the next one working.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <unistd.h>

#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

namespace fs = std::filesystem;

EngineConfig world_config() {
  EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.replication = 2;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  return cfg;
}

std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

bool same_answers(const data::KnnResults& a, const data::KnnResults& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) {
        return false;
      }
    }
  }
  return true;
}

TEST(EngineWorld, EachCohortStartsOnceAcrossSearchesWritesAndCompaction) {
  auto w = data::make_sift_like(800, 16, 901);
  auto cfg = world_config();
  cfg.local_index = LocalIndexKind::kSegmented;
  cfg.segment_delta_capacity = 64;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();  // starts the write-plane cohort
  EXPECT_EQ(eng.rank_threads_started(), cfg.n_workers);
  const auto rows = data::make_sift_like(4, 1, 902).base;
  for (int i = 0; i < 100; ++i) {
    (void)eng.search(w.queries.slice(std::size_t(i) % 8, std::size_t(i) % 8 + 4),
                     5);
    if (i % 10 == 0) (void)eng.insert(rows);
  }
  (void)eng.compact();
  EXPECT_EQ(eng.rank_threads_started(), 2 * cfg.n_workers);
}

TEST(EngineWorld, DestructorJoinsEveryRankThread) {
  auto w = data::make_sift_like(600, 8, 903);
  const std::size_t before = process_threads();
  {
    DistributedAnnEngine eng(&w.base, world_config());
    eng.build();
    (void)eng.search(w.queries, 5);
    EXPECT_EQ(process_threads(), before + 2 * 4);
  }
  EXPECT_EQ(process_threads(), before);
}

TEST(EngineWorld, IdenticalSearchesReportIdenticalTraffic) {
  auto w = data::make_sift_like(600, 12, 904);
  DistributedAnnEngine eng(&w.base, world_config());
  eng.build();
  SearchStats a, b;
  (void)eng.search(w.queries, 5, 0, &a);
  (void)eng.search(w.queries, 5, 0, &b);
  EXPECT_EQ(a.traffic.p2p_messages, b.traffic.p2p_messages);
  EXPECT_EQ(a.traffic.p2p_bytes, b.traffic.p2p_bytes);
  EXPECT_EQ(a.traffic.rma_ops, b.traffic.rma_ops);
  EXPECT_EQ(a.traffic.rma_bytes, b.traffic.rma_bytes);
  // Only the first batch creates the result window (a gather and a bcast);
  // later batches reuse it.
  EXPECT_EQ(b.traffic.collective_ops, 0u);
}

TEST(EngineWorld, MovedAndLoadedEnginesServe) {
  auto w = data::make_sift_like(700, 12, 905);
  DistributedAnnEngine eng(&w.base, world_config());
  eng.build();
  const auto want = eng.search(w.queries, 5);

  DistributedAnnEngine moved = std::move(eng);
  EXPECT_TRUE(same_answers(moved.search(w.queries, 5), want));
  DistributedAnnEngine assigned(&w.base, world_config());
  assigned = std::move(moved);
  EXPECT_TRUE(same_answers(assigned.search(w.queries, 5), want));

  const auto path = (fs::temp_directory_path() /
                     ("annsim_world_" + std::to_string(::getpid()) + ".idx"))
                        .string();
  assigned.save(path);
  auto loaded = DistributedAnnEngine::load(path);
  EXPECT_TRUE(same_answers(loaded.search(w.queries, 5), want));
  EXPECT_TRUE(same_answers(loaded.search(w.queries, 5), want));
  fs::remove_all(path);
}

TEST(EngineWorld, KilledRankStaysSilentAcrossOperationsUntilHeal) {
  auto w = data::make_sift_like(800, 20, 906);
  auto cfg = world_config();
  cfg.local_index = LocalIndexKind::kSegmented;
  cfg.result_timeout_ms = 150.0;
  // Worker 1 (rank 2) dies at the tenth dispatched query, mid-batch.
  cfg.fault.kills.push_back({/*rank=*/2, mpi::kNeverFires, /*at_step=*/10});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  const auto rows = data::make_sift_like(6, 1, 907).base;

  SearchStats st;
  (void)eng.search(w.queries, 5, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_FALSE(eng.health().alive(1));

  // The write round skips the dead rank, whose thread is still looping.
  const WriteStats ws = eng.insert(rows);
  EXPECT_TRUE(ws.all_acked);
  for (const char acked : ws.row_acked) EXPECT_TRUE(acked);

  // The next batch never dispatches to it: nothing new fails.
  (void)eng.search(w.queries, 5, 0, &st);
  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);
  EXPECT_FALSE(eng.health().alive(1));

  const auto heal = eng.heal();
  EXPECT_EQ(heal.workers_revived, 1u);
  EXPECT_TRUE(eng.under_replicated_partitions().empty());
  (void)eng.search(w.queries, 5, 0, &st);
  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.jobs_per_worker[1] > 0, true);  // serving again
  for (const GlobalId id : ws.assigned_ids) EXPECT_TRUE(eng.contains(id));
}

TEST(EngineWorld, AFailingOperationDoesNotWedgeTheNext) {
  auto w = data::make_sift_like(600, 12, 908);
  for (const double deadline : {0.0, 200.0}) {
    auto cfg = world_config();
    cfg.result_timeout_ms = deadline;
    DistributedAnnEngine eng(&w.base, cfg);
    eng.build();
    const auto want = eng.search(w.queries, 5);
    // The per-query hook throws on the first answer, mid-collection.
    EXPECT_THROW(
        (void)eng.search(w.queries, 5, 0, nullptr,
                         [](std::size_t, const std::vector<Neighbor>&,
                            const QueryCoverage&) {
                           throw std::runtime_error("hook failure");
                         }),
        std::runtime_error);
    SearchStats st;
    EXPECT_TRUE(same_answers(eng.search(w.queries, 5, 0, &st), want));
    EXPECT_EQ(st.workers_failed, 0u);
    EXPECT_EQ(eng.rank_threads_started(), 2 * cfg.n_workers);
  }
}

}  // namespace
}  // namespace annsim::core
