/// Chaos tests: the engine's failover path under injected worker failure.
/// The contract being pinned down:
///  * failure detection armed with no faults (a finite deadline that never
///    fires) returns the same results, dispatch and coverage as the infinite
///    deadline (result_timeout_ms == 0);
///  * with replication >= 2, a worker killed mid-batch costs nothing but
///    retries — every query still gets its full plan via live replicas;
///  * with replication == 1, queries that lose a partition come back degraded
///    (partial top-k, coverage says how partial) instead of hanging;
///  * a batch with a dead worker always returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/analysis.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

EngineConfig chaos_config(std::size_t workers = 4) {
  EngineConfig cfg;
  cfg.n_workers = workers;
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
  DistributedAnnEngine eng(&w.base, clean);
  eng.build();
  return eng.search(w.queries, k);
}

class EngineFaultSided : public ::testing::TestWithParam<bool> {};

TEST_P(EngineFaultSided, DetectionArmedNoFaultMatchesDetectionOff) {
  // One search path: a finite deadline that never fires must change
  // nothing — not the results, not the dispatch, not the coverage record.
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, one_sided ? 601 : 602);
  for (const std::size_t r : {std::size_t{1}, std::size_t{2}}) {
    auto cfg = chaos_config();
    cfg.one_sided = one_sided;
    cfg.replication = r;
    auto run = [&](double timeout_ms, SearchStats& st) {
      cfg.result_timeout_ms = timeout_ms;
      DistributedAnnEngine eng(&w.base, cfg);
      eng.build();
      return eng.search(w.queries, 10, 0, &st);
    };
    SearchStats off, armed;
    const auto res_off = run(0.0, off);
    const auto res_armed = run(250.0, armed);  // armed, but nothing will die
    for (std::size_t q = 0; q < res_off.size(); ++q) {
      EXPECT_EQ(res_armed[q], res_off[q]) << "r=" << r << " query " << q;
    }
    EXPECT_EQ(armed.jobs_per_worker, off.jobs_per_worker) << "r=" << r;
    EXPECT_EQ(armed.total_jobs, off.total_jobs) << "r=" << r;
    ASSERT_EQ(off.coverage.size(), w.queries.size());
    ASSERT_EQ(armed.coverage.size(), w.queries.size());
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      EXPECT_EQ(armed.coverage[q].partitions_searched,
                off.coverage[q].partitions_searched);
      EXPECT_EQ(armed.coverage[q].partitions_planned,
                off.coverage[q].partitions_planned);
      EXPECT_EQ(off.coverage[q].partitions_searched,
                off.coverage[q].partitions_planned);
      EXPECT_EQ(off.coverage[q].partitions_planned, cfg.n_probe);
    }
    for (const SearchStats* st : {&off, &armed}) {
      EXPECT_EQ(st->workers_failed, 0u);
      EXPECT_EQ(st->retries, 0u);
      EXPECT_EQ(st->degraded_queries, 0u);
    }
  }
}

TEST_P(EngineFaultSided, ReplicatedKillFailsOverWithoutDegradation) {
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, 603);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 2;  // every partition has a second live home
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 77;
  // Worker 1 (runtime rank 2) delivers three results, then goes silent.
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/3, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);  // must return, not hang

  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_GT(st.failovers, 0u);
  // Replicas covered everything: zero degradation, and every query's result
  // is identical to the fault-free run (failover merges are idempotent).
  EXPECT_EQ(st.degraded_queries, 0u);
  ASSERT_EQ(res.size(), clean.size());
  for (std::size_t q = 0; q < clean.size(); ++q) {
    EXPECT_EQ(res[q], clean[q]) << "query " << q;
  }
}

TEST_P(EngineFaultSided, UnreplicatedKillDegradesOnlyAffectedQueries) {
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, 604);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 1;  // no failover possible: losses become degradation
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 78;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/2, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);  // must return, not hang

  EXPECT_EQ(st.workers_failed, 1u);
  ASSERT_EQ(st.coverage.size(), w.queries.size());
  std::size_t degraded = 0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const auto& cov = st.coverage[q];
    EXPECT_LE(cov.partitions_searched, cov.partitions_planned);
    if (cov.degraded()) {
      ++degraded;
      // Partial, not empty: the live partitions still answered.
      EXPECT_GT(cov.partitions_searched, 0u);
      EXPECT_FALSE(res[q].empty());
    } else {
      // Full coverage => bit-identical to the fault-free run.
      EXPECT_EQ(res[q], clean[q]) << "query " << q;
    }
  }
  EXPECT_EQ(st.degraded_queries, degraded);
  // Worker 1's partition sat in some plans beyond its two delivered jobs.
  EXPECT_GT(degraded, 0u);
  EXPECT_LT(degraded, w.queries.size());
}

TEST_P(EngineFaultSided, DeadWorkerHoldsBackOnlyItsOwnQueries) {
  // Streaming answers: a query none of whose jobs sat on the dead worker is
  // answered as soon as its last partition lands — long before the failure
  // deadline, and before every query the death left degraded.
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, 604);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 1;
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 78;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/2, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> stamp(w.queries.size());
  std::vector<QueryCoverage> seen(w.queries.size());
  const auto start = Clock::now();
  SearchStats st;
  (void)eng.search(w.queries, 10, 0, &st,
                   [&](std::size_t qid, const std::vector<Neighbor>&,
                       const QueryCoverage& cov) {
                     stamp[qid] = Clock::now();
                     seen[qid] = cov;
                   });

  const auto deadline = start + std::chrono::milliseconds(250);
  auto first_degraded = Clock::time_point::max();
  auto last_full = Clock::time_point::min();
  std::size_t degraded = 0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    if (seen[q].degraded()) {
      ++degraded;
      first_degraded = std::min(first_degraded, stamp[q]);
    } else {
      EXPECT_LT(stamp[q], deadline) << "query " << q << " answered late";
      last_full = std::max(last_full, stamp[q]);
    }
  }
  ASSERT_GT(degraded, 0u);
  ASSERT_LT(degraded, w.queries.size());
  EXPECT_LT(last_full, first_degraded);
}

TEST_P(EngineFaultSided, DegradedHookReportsCoverage) {
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 20, 605);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.result_timeout_ms = 250.0;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/2, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  std::vector<int> fired(w.queries.size(), 0);
  std::vector<QueryCoverage> seen(w.queries.size());
  SearchStats st;
  (void)eng.search(w.queries, 5, 0, &st,
                   [&](std::size_t qid, const std::vector<Neighbor>&,
                       const QueryCoverage& cov) {
                     ++fired[qid];
                     seen[qid] = cov;
                   });
  std::size_t hook_degraded = 0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(fired[q], 1) << "query " << q;
    EXPECT_EQ(seen[q].partitions_searched, st.coverage[q].partitions_searched);
    EXPECT_EQ(seen[q].partitions_planned, st.coverage[q].partitions_planned);
    if (seen[q].degraded()) ++hook_degraded;
  }
  EXPECT_EQ(hook_degraded, st.degraded_queries);
}

TEST_P(EngineFaultSided, MessageDropNeverHangsTermination) {
  // The chaos-bench --drop-p scenario: probabilistic message drop can eat
  // data-plane traffic (jobs, results, RMA merges) but must never eat the
  // End-of-Queries control plane — a live worker that misses EOQ would spin
  // forever and hang the batch past any result timeout.
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 15, 609);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 2;
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.result_timeout_ms = 100.0;
  cfg.fault.seed = 80;
  cfg.fault.drop_probability = 0.25;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);  // must return, not hang

  ASSERT_EQ(st.coverage.size(), w.queries.size());
  std::size_t degraded = 0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    if (st.coverage[q].degraded()) {
      ++degraded;
    } else {
      // Recall loss is confined to queries reported degraded: full coverage
      // means the result is bit-identical to the fault-free run.
      EXPECT_EQ(res[q], clean[q]) << "query " << q;
    }
  }
  EXPECT_EQ(st.degraded_queries, degraded);
}

TEST_P(EngineFaultSided, DuplicateDeliveryIsIdempotentOnTheDataPlane) {
  // Retransmitted jobs and results look exactly like failover re-dispatch:
  // the merge path must absorb the second copy without double-counting, so
  // a heavy duplicate rate leaves every result bit-identical to the
  // fault-free run and nothing degraded.
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, 611);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 2;
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 82;
  cfg.fault.duplicate_probability = 0.5;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);  // must return, not hang

  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);
  ASSERT_EQ(res.size(), clean.size());
  for (std::size_t q = 0; q < clean.size(); ++q) {
    EXPECT_EQ(res[q], clean[q]) << "query " << q;
  }
}

TEST_P(EngineFaultSided, ReorderedDeliveryLeavesResultsBitEqual) {
  // Out-of-order delivery shuffles which job a worker sees next and which
  // result the master merges first; top-k merges are order-independent and
  // the End-of-Queries control plane rides reliable tags (exempt from the
  // reorder roll), so results match the fault-free run exactly.
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, 612);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 2;
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 83;
  cfg.fault.reorder_probability = 0.5;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);  // must return, not hang

  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);
  ASSERT_EQ(res.size(), clean.size());
  for (std::size_t q = 0; q < clean.size(); ++q) {
    EXPECT_EQ(res[q], clean[q]) << "query " << q;
  }
}

TEST_P(EngineFaultSided, AtStepKillFiresOnQueryDispatchClock) {
  // KillRule::at_step triggers on the engine's query-dispatch clock; at_step=1
  // means the worker's sends die from the first dispatched query onward.
  const bool one_sided = GetParam();
  auto w = data::make_sift_like(800, 25, 610);
  auto cfg = chaos_config(4);
  cfg.one_sided = one_sided;
  cfg.replication = 2;
  auto clean = fault_free_baseline(w, cfg, 10);

  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 81;
  cfg.fault.kills.push_back({/*rank=*/2, mpi::kNeverFires, /*at_step=*/1});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);  // must return, not hang

  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);  // a live replica covered every plan
  ASSERT_EQ(res.size(), clean.size());
  for (std::size_t q = 0; q < clean.size(); ++q) {
    EXPECT_EQ(res[q], clean[q]) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(BothTransports, EngineFaultSided,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "OneSided" : "TwoSided";
                         });

TEST(EngineFault, ChaosRunIsSeedDeterministic) {
  auto w = data::make_sift_like(800, 20, 606);
  auto cfg = chaos_config(4);
  cfg.replication = 2;
  cfg.result_timeout_ms = 250.0;
  cfg.fault.seed = 99;
  cfg.fault.kills.push_back({/*rank=*/3, /*after_ops=*/4, mpi::kNeverFires});

  auto run_once = [&] {
    DistributedAnnEngine eng(&w.base, cfg);
    eng.build();
    return eng.search(w.queries, 8);
  };
  auto a = run_once();
  auto b = run_once();
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q], b[q]) << "query " << q;
  }
}

TEST(EngineFault, ConfigValidationNamesTheField) {
  auto w = data::make_sift_like(600, 5, 607);
  auto expect_msg = [&](EngineConfig cfg, const char* needle) {
    try {
      DistributedAnnEngine eng(&w.base, cfg);
      FAIL() << "expected Error mentioning: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  { auto c = chaos_config(); c.result_timeout_ms = -1.0;
    expect_msg(c, "result_timeout_ms cannot be negative"); }
  { auto c = chaos_config(); c.fault.drop_probability = 2.0;
    c.result_timeout_ms = 10.0;
    expect_msg(c, "fault.drop_probability must be within [0, 1]"); }
  { auto c = chaos_config(); c.fault.duplicate_probability = 2.0;
    c.result_timeout_ms = 10.0;
    expect_msg(c, "fault.duplicate_probability must be within [0, 1]"); }
  { auto c = chaos_config(); c.fault.reorder_probability = -1.0;
    c.result_timeout_ms = 10.0;
    expect_msg(c, "fault.reorder_probability must be within [0, 1]"); }
  { auto c = chaos_config();  // enabled plan but detection left off
    c.fault.kills.push_back({/*rank=*/1, /*after_ops=*/0, mpi::kNeverFires});
    expect_msg(c, "set result_timeout_ms > 0"); }
  { auto c = chaos_config(4);  // rank 0 is the master, not killable
    c.result_timeout_ms = 10.0;
    c.fault.kills.push_back({/*rank=*/0, /*after_ops=*/0, mpi::kNeverFires});
    expect_msg(c, "rank 0 is the master"); }
  { auto c = chaos_config(4);  // rank 5 would be worker 4 of 4
    c.result_timeout_ms = 10.0;
    c.fault.kills.push_back({/*rank=*/5, /*after_ops=*/0, mpi::kNeverFires});
    expect_msg(c, "must name a worker rank"); }
  { auto c = chaos_config(); c.exact_routing = true;
    c.result_timeout_ms = 10.0;
    expect_msg(c, "exact_routing"); }
}

}  // namespace
}  // namespace annsim::core
