#pragma once
/// \file partitioner.hpp
/// \brief Distributed VP-tree construction — Algorithms 1 and 2 of the paper.
///
/// All worker ranks cooperate to build the root (distributed vantage-point
/// selection + distributed median + MPI_Alltoallv shuffle); the rank set is
/// then split in half, each half building one child recursively, until every
/// rank holds exactly one partition. Worker 0 assembles the router tree from
/// the per-rank construction paths and the caller forwards it to the master.

#include <cstdint>
#include <vector>

#include "annsim/data/dataset.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::core {

struct PartitionerConfig {
  /// The router's split rule. kVpTree runs Algorithms 1-2 across the
  /// workers; kKdTree (the Table III baseline) builds the KD-median tree at
  /// the master and hands each worker its partition's rows.
  vptree::PartitionTreeKind tree = vptree::PartitionTreeKind::kVpTree;
  /// Vantage-point candidates sampled per rank (paper: 100). VP only.
  std::size_t vantage_candidates = 100;
  /// Evaluation rows sampled per candidate-scoring pass. VP only.
  std::size_t vantage_sample = 256;
  std::uint64_t seed = 11;
};

/// Per-rank outcome of the distributed construction.
struct PartitionerResult {
  /// This rank's final partition (rows + global ids after all shuffles).
  data::Dataset partition;
  /// Partition id == this rank's index in the construction communicator.
  PartitionId partition_id = kInvalidPartition;
  /// The assembled routing tree — populated on rank 0 only.
  std::vector<std::byte> serialized_tree;
  /// Wall-clock of the whole distributed construction on this rank.
  double build_seconds = 0.0;
};

/// Run the distributed construction on `comm` (called by every rank of the
/// worker communicator, SPMD). `initial` is this rank's equal share of the
/// dataset; comm.size() must be a power of two. `metric` must be L2 or L1
/// (the engine passes its hnsw.metric).
[[nodiscard]] PartitionerResult build_distributed_vp_tree(
    mpi::Comm& comm, data::Dataset initial, const PartitionerConfig& config,
    simd::Metric metric);

/// Exact distributed selection of the median of a distributed value set
/// (the paper's "distributed version of the median of medians algorithm":
/// median-of-medians pivots inside an exact distributed quickselect).
/// Collective over `comm`; every rank returns the same median.
[[nodiscard]] float distributed_median(mpi::Comm& comm,
                                       std::vector<float> local_values);

/// Exclusive prefix sum of one value per rank (collective helper).
[[nodiscard]] std::uint64_t exscan_u64(mpi::Comm& comm, std::uint64_t value,
                                       std::uint64_t* total_out = nullptr);

}  // namespace annsim::core
