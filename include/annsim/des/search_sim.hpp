#pragma once
/// \file search_sim.hpp
/// \brief Discrete-event simulation of the master-worker batched search
/// (Algorithms 3 & 5) at cluster scale (256-8192 cores), and of §IV's
/// multiple-owner alternative the paper tried and set aside.
///
/// The simulator replays the *identical* dispatch decisions the real engine
/// makes — per-query partition plans from the real VP-tree router and the
/// same workgroup round-robin — while job durations and message times come
/// from the calibrated cost model and the machine model. Worker nodes are
/// multi-server FIFO queues (any core of a node can serve a job targeted at
/// the node, the paper's intra-node dynamic load balancing); the master is a
/// serial resource for routing, dispatch, and (in two-sided mode) merging.
/// In multiple-owner mode the master only scatters queries and receives
/// answers; routing and merging move onto the owners' cores.

#include <cstdint>
#include <vector>

#include "annsim/cluster/machine_model.hpp"
#include "annsim/common/types.hpp"

namespace annsim::des {

struct SearchSimConfig {
  std::size_t n_cores = 256;       ///< P worker cores (= partitions)
  std::size_t replication = 1;     ///< Algorithm 5's r (1 = baseline)
  bool one_sided = true;           ///< RMA result return vs two-sided sends
  std::size_t k = 10;
  std::size_t dim = 128;
  double route_seconds = 1.0e-6;   ///< F(q) per query (master or owner)
  /// Master-side cost of receiving and folding one worker result in
  /// two-sided mode (MPI matching + copy + k-way merge) — the serialized
  /// path whose removal motivates the one-sided optimization (§IV-C1).
  double merge_seconds = 5.0e-6;
  cluster::MachineModel machine;

  /// §IV's multiple-owner strategy instead of master-worker. The master only
  /// scatters queries, each to its owner core (a hash of the query index).
  /// The owner routes the query and dispatches its jobs, then merges its
  /// partial results, all on that one core, where these duties run before
  /// any queued job but compete with job service for the core. Each partial
  /// result is one two-sided hop to the owner (`one_sided` does not apply)
  /// and each answer one more hop, to the master. The strategy cannot use
  /// workgroup replication: replication > 1 throws annsim::Error.
  bool multiple_owner = false;

  /// Rank-to-node placement. Cyclic (round-robin) is the default: the
  /// paper's replication optimization targets load imbalance *across*
  /// compute nodes (§IV-C2) and its workgroups are consecutive core ids —
  /// they can only spread load across nodes if consecutive ranks live on
  /// different nodes, which is exactly what cyclic placement provides.
  /// Block placement packs ranks node by node and makes Algorithm 5 nearly
  /// a no-op (intra-node dynamic assignment already balances a node).
  bool cyclic_rank_mapping = true;
};

struct SearchSimResult {
  double makespan_seconds = 0.0;       ///< total query time (the paper's metric)
  double master_busy_seconds = 0.0;    ///< routing + dispatch + merging
                                       ///< (owner mode: scatter + answers)
  double compute_seconds = 0.0;        ///< sum of local-search durations
  double comm_cpu_seconds = 0.0;       ///< endpoint CPU spent on messaging
  double wire_seconds = 0.0;           ///< total in-flight time (overlapped)
  std::uint64_t total_jobs = 0;
  std::vector<std::uint64_t> jobs_per_core;  ///< Fig 4(b) distribution
  std::vector<double> busy_per_core;
  /// Per-query completion time (all of F(q) merged), seconds from batch
  /// start — the latency view behind the throughput numbers.
  std::vector<double> query_latency;

  // Fig 5 breakdown, fractions of (P+1) * makespan.
  double computation_fraction = 0.0;
  double communication_fraction = 0.0;
  double idle_fraction = 0.0;
};

/// `plans[q]` lists the partitions F(q) routed for query q (partition id ==
/// primary core id). `partition_cost[d]` is the local-search duration on
/// partition d (from CalibratedCosts at the modeled partition size).
[[nodiscard]] SearchSimResult simulate_search(
    const SearchSimConfig& config,
    const std::vector<std::vector<PartitionId>>& plans,
    const std::vector<double>& partition_cost);

}  // namespace annsim::des
