/// Property sweeps of the performance simulator: invariants that must hold
/// across the whole configuration space the benches explore.

#include <gtest/gtest.h>

#include <numeric>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/des/search_sim.hpp"

namespace annsim::des {
namespace {

std::vector<std::vector<PartitionId>> random_plans(std::size_t nq,
                                                   std::size_t parts,
                                                   std::size_t probes,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PartitionId>> plans(nq);
  for (auto& p : plans) {
    while (p.size() < probes) {
      const auto c = PartitionId(rng.uniform_below(parts));
      if (std::find(p.begin(), p.end(), c) == p.end()) p.push_back(c);
    }
  }
  return plans;
}

struct Case {
  std::size_t cores;
  std::size_t replication;
  bool one_sided;
  bool cyclic;
  bool owner = false;  ///< §IV's multiple-owner strategy
};

class SimSweep : public ::testing::TestWithParam<Case> {};

TEST_P(SimSweep, InvariantsHold) {
  const Case c = GetParam();
  const auto plans = random_plans(800, c.cores, 3, c.cores * 7 + 1);
  const std::vector<double> cost(c.cores, 3e-4);

  SearchSimConfig cfg;
  cfg.n_cores = c.cores;
  cfg.replication = c.replication;
  cfg.one_sided = c.one_sided;
  cfg.cyclic_rank_mapping = c.cyclic;
  cfg.multiple_owner = c.owner;
  const auto res = simulate_search(cfg, plans, cost);

  // Conservation.
  EXPECT_EQ(res.total_jobs, 800u * 3u);
  EXPECT_EQ(std::accumulate(res.jobs_per_core.begin(), res.jobs_per_core.end(),
                            std::uint64_t{0}),
            res.total_jobs);
  EXPECT_NEAR(res.compute_seconds, 2400 * 3e-4, 1e-9);

  // Makespan bounds: at least the critical compute path per core, at most
  // a fully serialized execution.
  const double per_core = res.compute_seconds / double(c.cores);
  EXPECT_GE(res.makespan_seconds, per_core * 0.99);
  EXPECT_LE(res.makespan_seconds, res.compute_seconds + 1.0);

  // Busy time never exceeds makespan on any core.
  for (double b : res.busy_per_core) {
    EXPECT_LE(b, res.makespan_seconds * (1.0 + 1e-9));
  }

  // Breakdown is a partition of unity.
  EXPECT_NEAR(res.computation_fraction + res.communication_fraction +
                  res.idle_fraction,
              1.0, 1e-9);
  EXPECT_GE(res.idle_fraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimSweep,
    ::testing::Values(Case{16, 1, true, true}, Case{16, 1, false, true},
                      Case{16, 4, true, true}, Case{64, 1, true, false},
                      Case{64, 5, false, true}, Case{256, 1, true, true},
                      Case{256, 3, true, false}, Case{1024, 5, true, true},
                      Case{16, 1, false, true, true},
                      Case{64, 1, true, false, true},
                      Case{256, 1, false, true, true},
                      Case{1024, 1, true, true, true}));

TEST(SimProperties, ReplicationNeverChangesJobTotals) {
  const auto plans = random_plans(500, 64, 4, 9);
  const std::vector<double> cost(64, 1e-4);
  SearchSimConfig cfg;
  cfg.n_cores = 64;
  std::uint64_t jobs = 0;
  for (std::size_t r = 1; r <= 5; ++r) {
    cfg.replication = r;
    const auto res = simulate_search(cfg, plans, cost);
    if (r == 1) jobs = res.total_jobs;
    EXPECT_EQ(res.total_jobs, jobs) << "r=" << r;
  }
}

TEST(SimProperties, HeavierJobsScaleMakespanProportionally) {
  const auto plans = random_plans(2000, 128, 4, 10);
  SearchSimConfig cfg;
  cfg.n_cores = 128;
  const auto cheap = simulate_search(cfg, plans, std::vector<double>(128, 1e-4));
  const auto costly = simulate_search(cfg, plans, std::vector<double>(128, 1e-3));
  const double ratio = costly.makespan_seconds / cheap.makespan_seconds;
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 15.0);
}

TEST(SimProperties, PerPartitionCostsAreRespected) {
  // One expensive partition dominates the makespan when all queries hit it.
  SearchSimConfig cfg;
  cfg.n_cores = 16;
  std::vector<double> cost(16, 1e-5);
  cost[7] = 1e-2;
  std::vector<std::vector<PartitionId>> plans(100, {PartitionId(7)});
  const auto res = simulate_search(cfg, plans, cost);
  EXPECT_GE(res.makespan_seconds, 100.0 / 16.0 * 1e-2 * 0.99);
}

TEST(SimProperties, QueryLatencyTracksCompletion) {
  const auto plans = random_plans(200, 32, 3, 12);
  SearchSimConfig cfg;
  cfg.n_cores = 32;
  const std::vector<double> cost(32, 2e-4);
  const auto res = simulate_search(cfg, plans, cost);
  ASSERT_EQ(res.query_latency.size(), 200u);
  double max_lat = 0.0;
  for (double l : res.query_latency) {
    EXPECT_GT(l, 0.0);
    EXPECT_LE(l, res.makespan_seconds + 1e-9);
    max_lat = std::max(max_lat, l);
  }
  // The slowest query essentially defines the makespan (modulo the
  // one-sided final window read).
  EXPECT_GE(max_lat, res.makespan_seconds * 0.5);
}

TEST(SimProperties, LaterQueriesFinishNoEarlierOnAverage) {
  // Dispatch order matters: the master routes queries sequentially, so the
  // last decile of queries must on average complete later than the first.
  const auto plans = random_plans(1000, 64, 4, 13);
  SearchSimConfig cfg;
  cfg.n_cores = 64;
  const std::vector<double> cost(64, 5e-4);
  const auto res = simulate_search(cfg, plans, cost);
  double first = 0, last = 0;
  for (std::size_t q = 0; q < 100; ++q) first += res.query_latency[q];
  for (std::size_t q = 900; q < 1000; ++q) last += res.query_latency[q];
  EXPECT_GT(last, first);
}

TEST(SimProperties, MasterBusyAccountsAllPhases) {
  const auto plans = random_plans(300, 32, 2, 11);
  SearchSimConfig cfg;
  cfg.n_cores = 32;
  cfg.route_seconds = 1e-5;
  const std::vector<double> cost(32, 1e-4);
  const auto res = simulate_search(cfg, plans, cost);
  EXPECT_GE(res.master_busy_seconds, 300 * 1e-5);  // at least routing
}

TEST(SimOwner, JobsPerCoreMatchMasterWorkerAtReplicationOne) {
  // At r = 1 both strategies send each job to its partition's core. With one
  // core per node that core also serves it, so the counts match per core;
  // with many cores per node any of the node's cores may serve, so they
  // match per node.
  const auto plans = random_plans(600, 96, 3, 21);
  const std::vector<double> cost(96, 2e-4);
  for (const std::size_t per_node : {1u, 24u}) {
    cluster::MachineParams mp;
    mp.cores_per_node = per_node;
    SearchSimConfig cfg;
    cfg.n_cores = 96;
    cfg.machine = cluster::MachineModel(mp);
    const auto mw = simulate_search(cfg, plans, cost);
    cfg.multiple_owner = true;
    const auto owner = simulate_search(cfg, plans, cost);
    EXPECT_EQ(owner.total_jobs, mw.total_jobs);
    const std::size_t nodes = cfg.machine.nodes_for_cores(96);
    std::vector<std::uint64_t> mw_node(nodes, 0), owner_node(nodes, 0);
    for (std::size_t c = 0; c < 96; ++c) {
      mw_node[c % nodes] += mw.jobs_per_core[c];
      owner_node[c % nodes] += owner.jobs_per_core[c];
    }
    EXPECT_EQ(owner_node, mw_node) << per_node << " cores per node";
    if (per_node == 1) {
      EXPECT_EQ(owner.jobs_per_core, mw.jobs_per_core);
    }
  }
}

TEST(SimOwner, MasterBusyExcludesRouting) {
  // Routing runs on the owners: the master pays one send per query and one
  // receive per answer, however costly F(q) is.
  const auto plans = random_plans(300, 32, 2, 22);
  const std::vector<double> cost(32, 1e-4);
  SearchSimConfig cfg;
  cfg.n_cores = 32;
  cfg.multiple_owner = true;
  const double per_message = cfg.machine.params().message_cpu_overhead;
  for (const double route : {1e-6, 1e-3}) {
    cfg.route_seconds = route;
    const auto res = simulate_search(cfg, plans, cost);
    EXPECT_NEAR(res.master_busy_seconds, 2 * 300 * per_message, 1e-12)
        << "route " << route;
    EXPECT_LT(res.master_busy_seconds, 300 * route);
  }
  // ...and it still costs time, on the owners' cores.
  cfg.route_seconds = 1e-3;
  const auto slow = simulate_search(cfg, plans, cost);
  cfg.route_seconds = 1e-6;
  const auto fast = simulate_search(cfg, plans, cost);
  EXPECT_GT(slow.makespan_seconds, fast.makespan_seconds);
}

TEST(SimOwner, RejectsReplication) {
  const auto plans = random_plans(10, 16, 2, 23);
  const std::vector<double> cost(16, 1e-4);
  SearchSimConfig cfg;
  cfg.n_cores = 16;
  cfg.multiple_owner = true;
  cfg.replication = 2;
  EXPECT_THROW((void)simulate_search(cfg, plans, cost), Error);
  cfg.replication = 1;
  EXPECT_NO_THROW((void)simulate_search(cfg, plans, cost));
}

}  // namespace
}  // namespace annsim::des
