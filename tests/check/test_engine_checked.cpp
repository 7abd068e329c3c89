/// Engine-level regression tests for annsim::check: every usage bug the
/// checker caught in the engine during its introduction is pinned here with
/// `check_fatal=true`, so a reintroduction fails the test instead of only
/// appearing under ANNSIM_MPI_CHECK=1 in CI.
///
/// The specific fixes under guard:
///  * worker job loops received with a kAnyTag wildcard that could swallow
///    reserved control messages — now irecv_tags({kTagQuery, kTagEoq});
///  * EOQ / heartbeat / done notices were plain sends on what are now
///    declared control-plane tags — now send_reserved/isend_reserved;
///  * with failure detection armed, results/done/heartbeats addressed to a
///    master that stopped listening are declared best-effort, so by-design
///    abandonment is counted as residue instead of an unmatched-send
///    violation.

#include <gtest/gtest.h>

#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::core {
namespace {

EngineConfig checked_config(std::size_t workers = 4) {
  EngineConfig cfg;
  cfg.n_workers = workers;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 2;  // exercise the thread-team recv loop
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  cfg.mpi_check = true;
  cfg.check_fatal = true;  // any violation throws out of build()/search()
  return cfg;
}

TEST(EngineChecked, MasterWorkerOneSidedIsCheckClean) {
  auto w = data::make_sift_like(600, 12, 701);
  DistributedAnnEngine eng(&w.base, checked_config());
  eng.build();
  auto res = eng.search(w.queries, 10);
  EXPECT_EQ(res.size(), w.queries.size());
  const auto rep = eng.check_report();
  EXPECT_TRUE(rep.clean()) << annsim::check::to_string(rep);
  EXPECT_GT(rep.runs, 0u);
}

TEST(EngineChecked, MasterWorkerTwoSidedIsCheckClean) {
  auto w = data::make_sift_like(600, 12, 702);
  auto cfg = checked_config();
  cfg.one_sided = false;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  (void)eng.search(w.queries, 10);
  const auto rep = eng.check_report();
  EXPECT_TRUE(rep.clean()) << annsim::check::to_string(rep);
}

// With detection armed and a worker killed mid-batch, failover abandons
// messages by design; the best-effort declaration keeps the run clean
// (residue, not violations) and fatal mode does not fire.
TEST(EngineChecked, FailoverUnderWorkerKillStaysClean) {
  auto w = data::make_sift_like(700, 20, 704);
  auto cfg = checked_config();
  cfg.replication = 2;
  cfg.result_timeout_ms = 150.0;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.workers_failed, 1u);
  const auto rep = eng.check_report();
  EXPECT_TRUE(rep.clean()) << annsim::check::to_string(rep);
}

// heal() runs its own replica-streaming runtime; it must be check-clean and
// fold into the same cumulative report.
TEST(EngineChecked, HealAndPostHealSearchAreCheckClean) {
  auto w = data::make_sift_like(700, 20, 705);
  auto cfg = checked_config();
  cfg.replication = 2;
  cfg.result_timeout_ms = 150.0;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  (void)eng.search(w.queries, 10);
  const auto heal = eng.heal();
  EXPECT_EQ(heal.workers_revived, 1u);
  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st);
  EXPECT_EQ(st.degraded_queries, 0u);
  const auto rep = eng.check_report();
  EXPECT_TRUE(rep.clean()) << annsim::check::to_string(rep);
  EXPECT_EQ(rep.total_violations(), 0u);
}

// The report accumulates across batches: runs only ever grows.
TEST(EngineChecked, ReportAccumulatesAcrossBatches) {
  auto w = data::make_sift_like(600, 8, 706);
  DistributedAnnEngine eng(&w.base, checked_config());
  eng.build();
  const auto after_build = eng.check_report().runs;
  EXPECT_GT(after_build, 0u);
  (void)eng.search(w.queries, 10);
  const auto after_one = eng.check_report().runs;
  EXPECT_GT(after_one, after_build);
  (void)eng.search(w.queries, 10);
  EXPECT_GT(eng.check_report().runs, after_one);
}

}  // namespace
}  // namespace annsim::core
