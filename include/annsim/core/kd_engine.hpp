#pragma once
/// \file kd_engine.hpp
/// \brief The Table III baseline: a PANDA-style distributed KD-tree engine
/// (Patwary et al. [1]) giving *exact* k-NN, run on the same simulated MPI
/// runtime and the same master-worker protocol as the VP+HNSW engine.
///
/// Exactness requires visiting every partition whose KD cell intersects the
/// query ball at the true k-th distance — the set that explodes with
/// dimensionality and makes this baseline ~10X slower on 96-960-d data.
///
/// Substitution note (see DESIGN.md): PANDA builds its KD partition tree
/// distributedly; here the partition tree is built at the master (the data
/// is in shared memory either way) and partitions are handed to workers.
/// Query-time behaviour — the object of Table III — is unaffected.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "annsim/data/dataset.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/kdtree/kd_tree.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::core {

struct BatchBounds;

struct KdEngineConfig {
  std::size_t n_workers = 8;           ///< power of two
  std::size_t threads_per_worker = 2;
  std::size_t leaf_size = 16;          ///< local KD-tree leaf size
  simd::Metric metric = simd::Metric::kL2;
  std::uint64_t seed = 123;
};

struct KdSearchStats {
  double total_seconds = 0.0;
  double master_route_seconds = 0.0;
  double master_dispatch_seconds = 0.0;
  double master_merge_seconds = 0.0;
  double worker_compute_seconds = 0.0;
  std::uint64_t total_jobs = 0;
  double mean_partitions_per_query = 0.0;  ///< the dimensionality explosion
  std::vector<std::uint64_t> jobs_per_worker;
};

class DistributedKdEngine {
 public:
  DistributedKdEngine(const data::Dataset* base, KdEngineConfig config);
  ~DistributedKdEngine();

  DistributedKdEngine(const DistributedKdEngine&) = delete;
  DistributedKdEngine& operator=(const DistributedKdEngine&) = delete;

  void build();
  [[nodiscard]] bool built() const noexcept { return router_.has_value(); }
  [[nodiscard]] double build_seconds() const noexcept { return build_seconds_; }

  /// Exact distributed k-NN (two-phase: nearest cell, then the exact ball).
  [[nodiscard]] data::KnnResults search(const data::Dataset& queries,
                                        std::size_t k,
                                        KdSearchStats* stats = nullptr);

  [[nodiscard]] const kdtree::PartitionKdTree& router() const;
  [[nodiscard]] std::vector<std::size_t> partition_sizes() const;

 private:
  struct Shard {
    std::unique_ptr<data::Dataset> data;
    std::unique_ptr<kdtree::KdTree> index;
  };

  void master_search(mpi::Comm& world, const data::Dataset& queries,
                     std::size_t k, data::KnnResults& results,
                     KdSearchStats& stats);
  void worker_search(mpi::Comm& world, const BatchBounds& bounds);

  const data::Dataset* base_;
  KdEngineConfig config_;
  std::optional<kdtree::PartitionKdTree> router_;
  std::vector<Shard> shards_;  ///< one per worker
  double build_seconds_ = 0.0;
};

}  // namespace annsim::core
