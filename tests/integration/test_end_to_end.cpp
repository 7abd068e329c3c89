/// End-to-end integration: the full paper pipeline on downscaled data —
/// generate a workload, build the distributed index through the simulated
/// MPI runtime, run the batched search in all modes, compare against the
/// exact KD baseline, and feed the real routing plans into the performance
/// simulator.

#include <gtest/gtest.h>

#include <numeric>

#include "annsim/cluster/calibration.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/des/search_sim.hpp"

namespace annsim {
namespace {

struct Pipeline {
  data::Workload w = data::make_sift_like(6000, 100, 2020);
  data::KnnResults gt =
      data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  core::EngineConfig cfg;

  Pipeline() {
    cfg.n_workers = 16;
    cfg.n_probe = 4;
    cfg.replication = 2;
    cfg.threads_per_worker = 2;
    cfg.hnsw.M = 8;
    cfg.hnsw.ef_construction = 60;
    cfg.partitioner.vantage_candidates = 16;
    cfg.partitioner.vantage_sample = 64;
  }
};

const Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

TEST(EndToEnd, FullPipelineRecallAndExactBaseline) {
  const auto& p = pipeline();
  core::DistributedAnnEngine eng(&p.w.base, p.cfg);
  eng.build();
  core::SearchStats st;
  auto res = eng.search(p.w.queries, 10, 0, &st);
  const double recall = data::mean_recall(res, p.gt, 10);
  EXPECT_GT(recall, 0.8);

  // The PANDA baseline: KD router, exact local trees with the KD split rule,
  // exact routing.
  core::EngineConfig kcfg;
  kcfg.n_workers = 16;
  kcfg.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
  kcfg.local_index = core::LocalIndexKind::kExactTree;
  kcfg.exact_routing = true;
  core::DistributedAnnEngine kd(&p.w.base, kcfg);
  kd.build();
  core::SearchStats kst;
  auto kres = kd.search(p.w.queries, 10, 0, &kst);
  EXPECT_DOUBLE_EQ(data::mean_recall(kres, p.gt, 10), 1.0);

  // The Table III mechanism on real (downscaled) data: at 128-d, exact KD
  // search visits far more partitions per query than VP+HNSW probes.
  EXPECT_GT(kst.mean_partitions_per_query, st.mean_partitions_per_query);
}

TEST(EndToEnd, RealPlansDriveThePerformanceSimulator) {
  const auto& p = pipeline();
  core::DistributedAnnEngine eng(&p.w.base, p.cfg);
  eng.build();
  auto plans = eng.plan_queries(p.w.queries);

  const auto costs = cluster::default_costs();
  const auto sizes = eng.partition_sizes();
  std::vector<double> cost(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    cost[i] = costs.hnsw_query_seconds(sizes[i]);
  }

  des::SearchSimConfig sim;
  sim.n_cores = 16;
  sim.dim = p.w.base.dim();
  auto r = des::simulate_search(sim, plans, cost);
  EXPECT_EQ(r.total_jobs, std::uint64_t(p.w.queries.size()) * p.cfg.n_probe);
  EXPECT_GT(r.makespan_seconds, 0.0);
  // DES job counts mirror the functional engine's dispatch decisions:
  // totals match because both replay the same plans and round-robin.
  core::SearchStats st;
  (void)eng.search(p.w.queries, 10, 0, &st);
  EXPECT_EQ(st.total_jobs, r.total_jobs);
}

TEST(EndToEnd, ScalingShapeOnRealRouting) {
  // Build engines at 8 and 32 partitions over the same corpus; the DES
  // makespan must shrink substantially with more cores (Fig 3's shape).
  const auto& p = pipeline();
  const auto costs = cluster::default_costs();
  auto run_at = [&](std::size_t workers) {
    auto cfg = p.cfg;
    cfg.n_workers = workers;
    cfg.replication = 1;
    core::DistributedAnnEngine eng(&p.w.base, cfg);
    eng.build();
    auto plans = eng.plan_queries(p.w.queries);
    const auto sizes = eng.partition_sizes();
    std::vector<double> cost(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      // Model the paper-scale partition: 1B points over `workers` cores.
      cost[i] = costs.hnsw_query_seconds(1'000'000'000 / workers);
    }
    des::SearchSimConfig sim;
    sim.n_cores = workers;
    sim.dim = p.w.base.dim();
    return des::simulate_search(sim, plans, cost).makespan_seconds;
  };
  const double t8 = run_at(8);
  const double t32 = run_at(32);
  EXPECT_GT(t8 / t32, 2.0);
}

TEST(EndToEnd, RecallTimeTradeoffAcrossM) {
  // Fig 6's shape on real data: larger M gives equal-or-better recall.
  const auto& p = pipeline();
  double prev_recall = 0.0;
  for (std::size_t M : {4u, 16u}) {
    auto cfg = p.cfg;
    cfg.hnsw.M = M;
    cfg.hnsw.ef_construction = std::max<std::size_t>(2 * M, 60);
    core::DistributedAnnEngine eng(&p.w.base, cfg);
    eng.build();
    auto res = eng.search(p.w.queries, 10);
    const double recall = data::mean_recall(res, p.gt, 10);
    EXPECT_GE(recall + 0.03, prev_recall) << "M=" << M;  // noise tolerance
    prev_recall = recall;
  }
  EXPECT_GT(prev_recall, 0.8);
}

}  // namespace
}  // namespace annsim
