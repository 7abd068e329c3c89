#include "annsim/core/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

EngineConfig fast_config(std::size_t workers = 8) {
  EngineConfig cfg;
  cfg.n_workers = workers;
  cfg.n_probe = 3;
  cfg.threads_per_worker = 2;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 60;
  cfg.hnsw.ef_search = 48;
  cfg.partitioner.vantage_candidates = 16;
  cfg.partitioner.vantage_sample = 64;
  return cfg;
}

struct Fixture {
  data::Workload w = data::make_sift_like(4000, 60, 91);
  data::KnnResults gt =
      data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Engine, ValidatesConfig) {
  data::Dataset d(100, 8);
  auto cfg = fast_config();
  cfg.n_workers = 6;  // not a power of two
  EXPECT_THROW(DistributedAnnEngine(&d, cfg), Error);
  cfg = fast_config();
  cfg.replication = 9;  // > workers
  EXPECT_THROW(DistributedAnnEngine(&d, cfg), Error);
  cfg = fast_config();
  cfg.strategy = DispatchStrategy::kMultipleOwner;
  cfg.one_sided = true;  // unsupported combination
  EXPECT_THROW(DistributedAnnEngine(&d, cfg), Error);
}

TEST(Engine, SearchBeforeBuildThrows) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  EXPECT_THROW((void)eng.search(f.w.queries, 10), Error);
  EXPECT_THROW((void)eng.router(), Error);
}

TEST(Engine, BuildProducesBalancedPartitionsAndStats) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  EXPECT_TRUE(eng.built());
  const auto& bs = eng.build_stats();
  EXPECT_GT(bs.total_seconds, 0.0);
  EXPECT_GT(bs.vp_tree_seconds, 0.0);
  EXPECT_GT(bs.hnsw_seconds, 0.0);
  ASSERT_EQ(bs.partition_sizes.size(), 8u);
  std::size_t total = 0;
  for (auto s : bs.partition_sizes) {
    EXPECT_GE(s, 4000u / 8 - 8);
    EXPECT_LE(s, 4000u / 8 + 8);
    total += s;
  }
  EXPECT_EQ(total, 4000u);
  EXPECT_EQ(eng.router().n_partitions(), 8u);
}

TEST(Engine, DoubleBuildThrows) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  EXPECT_THROW(eng.build(), Error);
}

TEST(Engine, OneSidedSearchReachesGoodRecall) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  SearchStats st;
  auto res = eng.search(f.w.queries, 10, 0, &st);
  EXPECT_GT(data::mean_recall(res, f.gt, 10), 0.8);
  EXPECT_EQ(st.total_jobs, f.w.queries.size() * 3);  // n_probe jobs per query
  EXPECT_DOUBLE_EQ(st.mean_partitions_per_query, 3.0);
  EXPECT_GT(st.traffic.rma_ops, 0u);  // the one-sided path was exercised
}

TEST(Engine, TwoSidedMatchesOneSidedResults) {
  const auto& f = fixture();
  auto cfg = fast_config();
  DistributedAnnEngine one(&f.w.base, cfg);
  cfg.one_sided = false;
  DistributedAnnEngine two(&f.w.base, cfg);
  one.build();
  two.build();
  auto r1 = one.search(f.w.queries, 10);
  auto r2 = two.search(f.w.queries, 10);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t q = 0; q < r1.size(); ++q) {
    EXPECT_EQ(r1[q], r2[q]) << "query " << q;
  }
}

TEST(Engine, ReplicationPreservesResults) {
  const auto& f = fixture();
  auto cfg = fast_config();
  DistributedAnnEngine base(&f.w.base, cfg);
  cfg.replication = 3;
  DistributedAnnEngine repl(&f.w.base, cfg);
  base.build();
  repl.build();
  auto r1 = base.search(f.w.queries, 10);
  auto r2 = repl.search(f.w.queries, 10);
  for (std::size_t q = 0; q < r1.size(); ++q) {
    EXPECT_EQ(r1[q], r2[q]) << "query " << q;
  }
}

TEST(Engine, ReplicationSpreadsJobs) {
  // With replication, the workgroup round-robin must spread each
  // partition's jobs over r workers: the max per-worker load drops.
  auto w = data::make_syn(4096, 32, 20, 400, 92);  // clustered => skewed routing
  auto cfg = fast_config(8);
  cfg.n_probe = 2;
  DistributedAnnEngine base(&w.base, cfg);
  cfg.replication = 4;
  DistributedAnnEngine repl(&w.base, cfg);
  base.build();
  repl.build();
  SearchStats st_base, st_repl;
  (void)base.search(w.queries, 10, 0, &st_base);
  (void)repl.search(w.queries, 10, 0, &st_repl);
  const auto max_base = *std::max_element(st_base.jobs_per_worker.begin(),
                                          st_base.jobs_per_worker.end());
  const auto max_repl = *std::max_element(st_repl.jobs_per_worker.begin(),
                                          st_repl.jobs_per_worker.end());
  EXPECT_LT(max_repl, max_base);
}

TEST(Engine, JobsPerWorkerSumToTotal) {
  const auto& f = fixture();
  auto cfg = fast_config();
  cfg.replication = 2;
  DistributedAnnEngine eng(&f.w.base, cfg);
  eng.build();
  SearchStats st;
  (void)eng.search(f.w.queries, 10, 0, &st);
  const auto sum = std::accumulate(st.jobs_per_worker.begin(),
                                   st.jobs_per_worker.end(), std::uint64_t{0});
  EXPECT_EQ(sum, st.total_jobs);
}

TEST(Engine, ExactRoutingBeatsOrMatchesSinglePassRecall) {
  const auto& f = fixture();
  auto cfg = fast_config();
  cfg.n_probe = 1;
  DistributedAnnEngine single(&f.w.base, cfg);
  cfg.exact_routing = true;
  cfg.one_sided = false;
  DistributedAnnEngine exact(&f.w.base, cfg);
  single.build();
  exact.build();
  SearchStats st;
  const double r_single =
      data::mean_recall(single.search(f.w.queries, 10), f.gt, 10);
  const double r_exact =
      data::mean_recall(exact.search(f.w.queries, 10, 0, &st), f.gt, 10);
  EXPECT_GE(r_exact, r_single);
  EXPECT_GT(r_exact, 0.95);
  EXPECT_GT(st.mean_partitions_per_query, 1.0);
}

TEST(Engine, MultipleOwnerMatchesMasterWorker) {
  const auto& f = fixture();
  auto cfg = fast_config();
  cfg.one_sided = false;
  DistributedAnnEngine mw(&f.w.base, cfg);
  cfg.strategy = DispatchStrategy::kMultipleOwner;
  DistributedAnnEngine owner(&f.w.base, cfg);
  mw.build();
  owner.build();
  SearchStats st;
  std::vector<QueryCoverage> seen(f.w.queries.size());
  auto r1 = mw.search(f.w.queries, 10);
  auto r2 = owner.search(f.w.queries, 10, 0, &st,
                         [&](std::size_t qid, const std::vector<Neighbor>&,
                             const QueryCoverage& cov) { seen[qid] = cov; });
  for (std::size_t q = 0; q < r1.size(); ++q) {
    EXPECT_EQ(r1[q], r2[q]) << "query " << q;
    // Full coverage, reported by the owner: every planned partition merged.
    EXPECT_EQ(seen[q].partitions_planned, cfg.n_probe) << "query " << q;
    EXPECT_EQ(seen[q].partitions_searched, cfg.n_probe) << "query " << q;
  }
  EXPECT_EQ(st.total_jobs, f.w.queries.size() * cfg.n_probe);
  std::uint64_t processed = 0;
  for (const std::uint64_t n : st.jobs_per_worker) processed += n;
  EXPECT_EQ(st.total_jobs, processed);
}

TEST(Engine, HigherEfImprovesRecall) {
  const auto& f = fixture();
  auto cfg = fast_config();
  cfg.n_probe = 4;
  DistributedAnnEngine eng(&f.w.base, cfg);
  eng.build();
  const double lo = data::mean_recall(eng.search(f.w.queries, 10, 12), f.gt, 10);
  const double hi = data::mean_recall(eng.search(f.w.queries, 10, 256), f.gt, 10);
  EXPECT_GE(hi, lo);
}

TEST(Engine, MoreProbesImproveRecall) {
  const auto& f = fixture();
  auto cfg = fast_config();
  cfg.n_probe = 1;
  DistributedAnnEngine p1(&f.w.base, cfg);
  cfg.n_probe = 6;
  DistributedAnnEngine p6(&f.w.base, cfg);
  p1.build();
  p6.build();
  const double r1 = data::mean_recall(p1.search(f.w.queries, 10), f.gt, 10);
  const double r6 = data::mean_recall(p6.search(f.w.queries, 10), f.gt, 10);
  EXPECT_GE(r6, r1);
  EXPECT_GT(r6, 0.9);
}

TEST(Engine, PlanQueriesMatchesRouterDecisions) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  auto plans = eng.plan_queries(f.w.queries);
  ASSERT_EQ(plans.size(), f.w.queries.size());
  for (std::size_t q = 0; q < plans.size(); ++q) {
    EXPECT_EQ(plans[q].size(), 3u);
    EXPECT_EQ(plans[q],
              eng.router().route_topk(f.w.queries.row(q), 3).partitions);
  }
}

TEST(Engine, StatsPhasesArePopulated) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  SearchStats st;
  (void)eng.search(f.w.queries, 10, 0, &st);
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_GT(st.master_route_seconds, 0.0);
  EXPECT_GT(st.master_dispatch_seconds, 0.0);
  EXPECT_GT(st.worker_compute_seconds, 0.0);
  EXPECT_GT(st.traffic.p2p_messages, 0u);
}

TEST(Engine, SingleWorkerDegeneratesGracefully) {
  auto w = data::make_sift_like(500, 20, 93);
  auto cfg = fast_config(1);
  cfg.n_probe = 1;
  cfg.replication = 1;
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  auto res = eng.search(w.queries, 10);
  EXPECT_GT(data::mean_recall(res, gt, 10), 0.9);
}

TEST(Engine, KEqualsOne) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  auto res = eng.search(f.w.queries, 1);
  double recall = 0;
  for (std::size_t q = 0; q < res.size(); ++q) {
    ASSERT_EQ(res[q].size(), 1u);
    recall += data::recall_at_k(res[q], f.gt[q], 1);
  }
  EXPECT_GT(recall / double(res.size()), 0.8);
}

TEST(Engine, RepeatedSearchesAreDeterministic) {
  const auto& f = fixture();
  DistributedAnnEngine eng(&f.w.base, fast_config());
  eng.build();
  auto r1 = eng.search(f.w.queries, 10);
  auto r2 = eng.search(f.w.queries, 10);
  for (std::size_t q = 0; q < r1.size(); ++q) EXPECT_EQ(r1[q], r2[q]);
}

/// The replication sweep of Fig 4 must run at every r the paper tests.
class ReplicationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReplicationSweep, BuildsAndSearchesAtEveryR) {
  const auto& f = fixture();
  auto cfg = fast_config();
  cfg.replication = GetParam();
  DistributedAnnEngine eng(&f.w.base, cfg);
  eng.build();
  auto res = eng.search(f.w.queries, 10);
  EXPECT_GT(data::mean_recall(res, f.gt, 10), 0.8) << "r=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rs, ReplicationSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace annsim::core
