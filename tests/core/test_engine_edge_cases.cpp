/// Edge cases and less-traveled configurations of the distributed engine:
/// alternative metrics, extreme replication, dimension mismatches, tiny
/// partitions, and stats invariants.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/analysis.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

EngineConfig small_config(std::size_t workers = 4) {
  EngineConfig cfg;
  cfg.n_workers = workers;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  return cfg;
}

TEST(EngineEdge, L1MetricEndToEnd) {
  auto w = data::make_syn(1200, 24, 10, 30, 501);
  auto cfg = small_config();
  cfg.hnsw.metric = simd::Metric::kL1;
  cfg.n_probe = 3;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto res = eng.search(w.queries, 5);
  auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL1);
  EXPECT_GT(data::mean_recall(res, gt, 5), 0.7);
}

TEST(EngineEdge, ConfigValidationMessagesNameTheField) {
  auto w = data::make_sift_like(600, 5, 506);
  auto expect_msg = [&](EngineConfig cfg, const char* needle) {
    try {
      DistributedAnnEngine eng(&w.base, cfg);
      FAIL() << "expected Error mentioning: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  { auto c = small_config(); c.n_workers = 0;
    expect_msg(c, "n_workers must be nonzero"); }
  { auto c = small_config(); c.n_workers = 6;
    expect_msg(c, "power of two"); }
  { auto c = small_config(); c.replication = 0;
    expect_msg(c, "replication must be nonzero"); }
  { auto c = small_config(4); c.replication = 5;
    expect_msg(c, "cannot exceed n_workers"); }
  { auto c = small_config(); c.n_probe = 0;
    expect_msg(c, "n_probe must be nonzero"); }
  { auto c = small_config(); c.threads_per_worker = 0;
    expect_msg(c, "threads_per_worker must be nonzero"); }
  // The same validation is callable standalone (used again inside build()).
  EXPECT_NO_THROW(validate_engine_config(small_config()));
}

TEST(EngineEdge, PerQueryCompletionHookFiresExactlyOncePerQuery) {
  auto w = data::make_sift_like(800, 12, 507);
  DistributedAnnEngine eng(&w.base, small_config());
  eng.build();
  std::vector<int> fired(w.queries.size(), 0);
  auto res = eng.search(w.queries, 5, 0, nullptr,
                        [&](std::size_t qid, const std::vector<Neighbor>& nn,
                            const QueryCoverage& cov) {
                          ++fired[qid];
                          EXPECT_LE(nn.size(), 5u);
                          EXPECT_FALSE(nn.empty());
                          EXPECT_FALSE(cov.degraded());
                        });
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(fired[q], 1) << "query " << q;
    EXPECT_EQ(res[q].size(), 5u);
  }
}

TEST(EngineEdge, NonMetricDistanceRejectedAtConstruction) {
  auto w = data::make_deep_like(500, 5, 502);
  auto cfg = small_config();
  cfg.hnsw.metric = simd::Metric::kInnerProduct;  // VP routing needs a metric
  EXPECT_THROW(DistributedAnnEngine(&w.base, cfg), Error);
}

TEST(EngineEdge, QueryDimensionMismatchThrows) {
  auto w = data::make_sift_like(600, 5, 503);
  DistributedAnnEngine eng(&w.base, small_config());
  eng.build();
  data::Dataset wrong(3, 64);
  EXPECT_THROW((void)eng.search(wrong, 5), Error);
}

TEST(EngineEdge, FullReplicationEveryWorkerHoldsEverything) {
  auto w = data::make_sift_like(800, 20, 504);
  auto cfg = small_config(4);
  cfg.replication = 4;  // r == P: every worker replicates every partition
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_GT(data::mean_recall(res, gt, 10), 0.75);
  // With r == P the round-robin spreads perfectly: load CV near zero.
  EXPECT_LT(data::load_imbalance_cv(st.jobs_per_worker), 0.35);
}

TEST(EngineEdge, NProbeLargerThanPartitionsIsClamped) {
  auto w = data::make_sift_like(600, 15, 505);
  auto cfg = small_config(4);
  cfg.n_probe = 99;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 10, 0, &st);
  EXPECT_DOUBLE_EQ(st.mean_partitions_per_query, 4.0);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_GT(data::mean_recall(res, gt, 10), 0.9);  // probing everything
}

TEST(EngineEdge, SingleQueryBatch) {
  auto w = data::make_sift_like(600, 1, 506);
  DistributedAnnEngine eng(&w.base, small_config());
  eng.build();
  auto res = eng.search(w.queries, 3);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].size(), 3u);
}

TEST(EngineEdge, KLargerThanPartitionSizes) {
  // k exceeding each partition's population: merged results must still
  // deliver k global neighbors when probes cover enough partitions.
  auto w = data::make_sift_like(256, 10, 507);
  auto cfg = small_config(8);  // 32 points per partition
  cfg.n_probe = 8;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto res = eng.search(w.queries, 50);
  for (const auto& r : res) {
    EXPECT_GE(r.size(), 50u * 3 / 4);
    for (std::size_t i = 1; i < r.size(); ++i) {
      EXPECT_LE(r[i - 1].dist, r[i].dist);
      EXPECT_NE(r[i - 1].id, r[i].id);
    }
  }
}

TEST(EngineEdge, ManyThreadsPerWorker) {
  auto w = data::make_sift_like(800, 30, 508);
  auto cfg = small_config();
  cfg.threads_per_worker = 4;  // Algorithm 4 with a bigger team
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto r1 = eng.search(w.queries, 10);
  cfg.threads_per_worker = 1;
  DistributedAnnEngine eng1(&w.base, cfg);
  eng1.build();
  auto r2 = eng1.search(w.queries, 10);
  for (std::size_t q = 0; q < r1.size(); ++q) {
    EXPECT_EQ(r1[q], r2[q]);  // thread count never changes results
  }
}

TEST(EngineEdge, OneSidedTrafficShowsRmaPerJob) {
  auto w = data::make_sift_like(600, 10, 510);
  DistributedAnnEngine eng(&w.base, small_config());
  eng.build();
  SearchStats st;
  (void)eng.search(w.queries, 5, 0, &st);
  // One get_accumulate per job, plus the master's final per-query reads.
  EXPECT_EQ(st.traffic.rma_ops, st.total_jobs + w.queries.size());
}

TEST(EngineEdge, OneSidedSendsOneSlotFullNoticePerQuery) {
  // A thread team folds several jobs of one query concurrently; the atomic
  // merge still lets exactly one accumulate see the slot complete, so the
  // p2p traffic is one message per job, one notice per query, and the
  // batch's control message, EOQ and a done notice per worker.
  auto w = data::make_sift_like(600, 30, 514);
  auto cfg = small_config();
  cfg.threads_per_worker = 2;
  cfg.replication = 2;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  std::vector<int> fired(w.queries.size(), 0);
  SearchStats st;
  (void)eng.search(w.queries, 5, 0, &st,
                   [&](std::size_t qid, const std::vector<Neighbor>&,
                       const QueryCoverage&) { ++fired[qid]; });
  const std::uint64_t P = cfg.n_workers;
  EXPECT_EQ(st.traffic.p2p_messages,
            st.total_jobs + w.queries.size() + 3 * P);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(fired[q], 1) << "query " << q;
  }
}

TEST(EngineEdge, BuildDeterminismAcrossEngines) {
  auto w = data::make_sift_like(900, 20, 511);
  DistributedAnnEngine a(&w.base, small_config());
  DistributedAnnEngine b(&w.base, small_config());
  a.build();
  b.build();
  EXPECT_EQ(a.partition_sizes(), b.partition_sizes());
  auto ra = a.search(w.queries, 10);
  auto rb = b.search(w.queries, 10);
  for (std::size_t q = 0; q < ra.size(); ++q) EXPECT_EQ(ra[q], rb[q]);
}

TEST(EngineEdge, ParallelLocalBuildStillReachesRecall) {
  auto w = data::make_sift_like(1200, 25, 512);
  auto cfg = small_config();
  cfg.parallel_local_build = true;
  cfg.threads_per_worker = 3;
  cfg.n_probe = 3;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto res = eng.search(w.queries, 10);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_GT(data::mean_recall(res, gt, 10), 0.8);
}

TEST(EngineEdge, ExactRoutingWithTinyPartitionsFallsBackToFullSweep) {
  // k larger than any single partition: phase 1 returns < k neighbors, the
  // radius stays infinite, and phase 2 must sweep every partition — recall
  // becomes routing-exact even in this degenerate setup.
  auto w = data::make_sift_like(64, 10, 513);
  auto cfg = small_config(8);  // 8 points per partition
  cfg.exact_routing = true;
  cfg.local_index = LocalIndexKind::kBruteForce;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  auto res = eng.search(w.queries, 16, 0, &st);  // k=16 > 8 points/partition
  auto gt = data::brute_force_knn(w.base, w.queries, 16, simd::Metric::kL2);
  EXPECT_DOUBLE_EQ(data::mean_recall(res, gt, 16), 1.0);
  EXPECT_DOUBLE_EQ(st.mean_partitions_per_query, 8.0);
}

TEST(EngineEdge, ExactRoutingTrafficIsOneAccumulatePerJob) {
  // Exact routing's two phases share one result slot. Phase 1's lone job
  // fills it and rings the master, which reads the slot and plans the ball
  // at the k-th distance found; the ball's last merge rings once more and
  // the master reads the final answer. So a query sends one notice when its
  // ball adds no partition and two when it does, the master makes one read
  // per notice, and every job is one get_accumulate.
  auto w = data::make_sift_like(800, 30, 515);
  auto cfg = small_config();
  cfg.exact_routing = true;
  cfg.local_index = LocalIndexKind::kBruteForce;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  SearchStats st;
  const auto res = eng.search(w.queries, 10, 0, &st);
  const auto gt =
      data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  EXPECT_DOUBLE_EQ(data::mean_recall(res, gt, 10), 1.0);

  std::uint64_t notices = 0;
  std::size_t two_phase = 0;
  for (const QueryCoverage& cov : st.coverage) {
    EXPECT_FALSE(cov.degraded());
    const bool ball_added = cov.partitions_planned > 1;
    notices += ball_added ? 2 : 1;
    two_phase += ball_added ? 1 : 0;
  }
  EXPECT_GT(two_phase, 0u);  // the second phase really ran
  const std::uint64_t P = cfg.n_workers;
  EXPECT_EQ(std::accumulate(st.jobs_per_worker.begin(),
                            st.jobs_per_worker.end(), std::uint64_t{0}),
            st.total_jobs);
  EXPECT_EQ(st.traffic.rma_ops, st.total_jobs + notices);
  EXPECT_EQ(st.traffic.p2p_messages, st.total_jobs + notices + 3 * P);
}

TEST(EngineEdge, ExactRoutingBallWithinThePhaseOnePartitionAnswersAtOnce) {
  // A query on a base row at k = 1 finds itself at distance 0 in phase 1.
  // The ball of radius 0 reaches no other partition, so the phase-1 read
  // answers it: one job, one notice, one read.
  auto w = data::make_sift_like(800, 1, 516);
  auto cfg = small_config();
  cfg.exact_routing = true;
  cfg.local_index = LocalIndexKind::kBruteForce;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  data::Dataset query(1, w.base.dim());
  query.set_row(0, w.base.row_span(7));
  SearchStats st;
  const auto res = eng.search(query, 1, 0, &st);
  ASSERT_EQ(res[0].size(), 1u);
  EXPECT_EQ(res[0][0].id, GlobalId(7));
  EXPECT_EQ(res[0][0].dist, 0.0f);
  ASSERT_EQ(st.coverage.size(), 1u);
  EXPECT_EQ(st.coverage[0].partitions_planned, 1u);
  EXPECT_EQ(st.coverage[0].partitions_searched, 1u);
  EXPECT_EQ(st.total_jobs, 1u);
  const std::uint64_t P = cfg.n_workers;
  EXPECT_EQ(st.traffic.rma_ops, 1u + 1u);
  EXPECT_EQ(st.traffic.p2p_messages, 1u + 1u + 3 * P);
}

TEST(EngineEdge, DatasetTooSmallRejected) {
  data::Dataset tiny(7, 8);
  EXPECT_THROW(DistributedAnnEngine(&tiny, small_config(4)), Error);
}

}  // namespace
}  // namespace annsim::core
