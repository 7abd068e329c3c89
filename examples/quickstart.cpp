/// Quickstart: build a distributed approximate k-NN index over a synthetic
/// corpus and answer a query batch — the five-minute tour of the public API.
///
///   1. make a workload (or load .fvecs/.bvecs files via annsim::data)
///   2. configure the engine (partitions, replication, HNSW parameters)
///   3. build()  — distributed VP-tree partitioning + local HNSW indexes,
///                 executed on the simulated MPI runtime
///   4. search() — master-worker batched k-NN (Algorithms 3-5 of the paper)
///   5. score against exact ground truth
///
/// Run: ./quickstart [n_points] [n_queries]

#include <cstdio>
#include <cstdlib>

#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

int main(int argc, char** argv) {
  using namespace annsim;

  const std::size_t n_points = argc > 1 ? std::size_t(std::atoll(argv[1])) : 20000;
  const std::size_t n_queries = argc > 2 ? std::size_t(std::atoll(argv[2])) : 200;

  // 1. A SIFT-like workload: 128-d descriptor vectors plus held-out queries.
  std::printf("generating %zu base points + %zu queries (128-d, SIFT-like)\n",
              n_points, n_queries);
  data::Workload w = data::make_sift_like(n_points, n_queries);

  // 2. Engine configuration. 8 worker "cores", each holding one partition
  //    of the corpus behind a local HNSW index; every partition is
  //    replicated onto 2 workers for load balancing; each query probes its
  //    4 most promising partitions.
  core::EngineConfig cfg;
  cfg.n_workers = 8;
  cfg.replication = 2;
  cfg.n_probe = 4;
  cfg.hnsw.M = 16;
  cfg.hnsw.ef_construction = 120;

  // 3. Distributed construction.
  core::DistributedAnnEngine engine(&w.base, cfg);
  engine.build();
  const auto& bs = engine.build_stats();
  std::printf("built in %.2fs (VP tree %.2fs, HNSW %.2fs); partitions:",
              bs.total_seconds, bs.vp_tree_seconds, bs.hnsw_seconds);
  for (std::size_t s : bs.partition_sizes) std::printf(" %zu", s);
  std::printf("\n");

  // 4. Batched 10-NN search.
  core::SearchStats st;
  data::KnnResults results = engine.search(w.queries, /*k=*/10, /*ef=*/0, &st);
  std::printf("searched %zu queries in %.3fs (%.0f queries/s, %llu jobs)\n",
              n_queries, st.total_seconds,
              double(n_queries) / st.total_seconds,
              static_cast<unsigned long long>(st.total_jobs));

  // 5. Score against exact brute force.
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  std::printf("recall@10 = %.3f\n", data::mean_recall(results, gt, 10));

  // Peek at one answer.
  std::printf("query 0 nearest neighbors:");
  for (const auto& nb : results[0]) {
    std::printf(" (#%llu d=%.1f)", static_cast<unsigned long long>(nb.id),
                nb.dist);
  }
  std::printf("\n");
  return 0;
}
