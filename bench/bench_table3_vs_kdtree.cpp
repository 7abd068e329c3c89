/// Reproduces Table III: total search times of our VP+HNSW method vs the
/// PANDA-style distributed KD-tree [1]:
///   ANN_SIFT1B @ 8192 cores: 6.3 s vs 85.6 s (13.6x), recall 0.88
///   DEEP1B     @ 8192 cores: 7.1 s vs 80.9 s (11.4x), recall 0.85
///   ANN_GIST1M @ 24 cores:   0.54 s vs 4.6 s (8.5x),  recall 0.91
///
/// Functional plane: both methods run for real on the simulated MPI runtime
/// over a downscaled corpus, in the paper's F(q) semantics (the sufficient
/// partition set for exact reconstruction) — wall-clock plus measured recall
/// and partitions searched per query. The KD column is the exactFq engine
/// configuration with only the router and the local index swapped for KD
/// trees, so the two exact columns differ in nothing else.
///
/// Model plane: both routers route the real query set with ball radii
/// *rescaled to billion-point density*. On a downscaled corpus the k-th
/// neighbor sits much farther out than at 10^9 points; we estimate the
/// data's intrinsic dimensionality from the ground-truth distance profile
/// (r_k ~ k^(1/d)) and shrink each query's radius by
/// (n_downscaled / n_paper)^(1/d_int). This is precisely the regime that
/// separates the two trees: a smaller metric ball escapes most VP spheres,
/// while KD cells — axis-bounded in only log2(P) of the 96-960 dimensions —
/// keep intersecting it. Local costs come from the calibrated model (HNSW
/// beam search vs exact SIMD scan).

#include <cmath>
#include <cstdio>

#include "annsim/common/timer.hpp"
#include "annsim/data/analysis.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/des/search_sim.hpp"
#include "bench_common.hpp"

namespace {

using namespace annsim;

struct Spec {
  const char* name;
  const char* recipe;
  std::size_t paper_n;
  std::size_t paper_cores;  ///< power-of-two stand-in for the paper's count
  std::size_t downscaled_n;
  std::size_t n_queries;    ///< paper query count
  double beam;              ///< paper-scale beam ratio (recall tuning)
};

void functional_plane(const Spec& spec) {
  auto w = data::make_by_name(spec.recipe, bench::scaled(spec.downscaled_n),
                              256, 333);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);

  // Two operating points for our engine: the throughput configuration
  // (single-pass routing, few probes — recall near the paper's 0.85-0.91)
  // and the exact F(q) configuration (two-phase sufficient-set routing).
  core::EngineConfig cfg;
  cfg.n_workers = 16;
  cfg.n_probe = 6;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 16;
  cfg.hnsw.ef_construction = 100;
  cfg.hnsw.ef_search = 96;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 64;
  core::DistributedAnnEngine ours(&w.base, cfg);
  ours.build();

  auto cfg_exact = cfg;
  cfg_exact.exact_routing = true;
  core::DistributedAnnEngine ours_exact(&w.base, cfg_exact);
  ours_exact.build();

  // PANDA's exact distributed KD-tree: a KD router over exact local KD
  // trees, on the exactFq column's two-phase protocol.
  auto cfg_kd = cfg_exact;
  cfg_kd.partitioner.tree = vptree::PartitionTreeKind::kKdTree;
  cfg_kd.local_index = core::LocalIndexKind::kExactTree;
  core::DistributedAnnEngine kd(&w.base, cfg_kd);
  kd.build();

  WallTimer t1;
  core::SearchStats ost;
  auto res = ours.search(w.queries, 10, 0, &ost);
  const double ours_s = t1.seconds();
  WallTimer t1e;
  core::SearchStats est;
  auto res_exact = ours_exact.search(w.queries, 10, 0, &est);
  const double exact_s = t1e.seconds();
  WallTimer t2;
  core::SearchStats kst;
  auto kres = kd.search(w.queries, 10, 0, &kst);
  const double kd_s = t2.seconds();

  std::printf("%-12s %9.3f %6.2f %11.3f %6.2f %7.1f %8.3f %6.2f %7.1f %8.1fx\n",
              spec.name, ours_s, data::mean_recall(res, gt, 10), exact_s,
              data::mean_recall(res_exact, gt, 10),
              est.mean_partitions_per_query, kd_s,
              data::mean_recall(kres, gt, 10), kst.mean_partitions_per_query,
              kd_s / ours_s);
}

void model_plane(const Spec& spec) {
  const auto& costs = bench::costs();
  const std::size_t P = spec.paper_cores;
  auto w = data::make_by_name(spec.recipe, bench::scaled(spec.downscaled_n),
                              512, 334);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);

  const double d_int = data::intrinsic_dimension(gt, w.base.dim());
  const double radius_scale =
      data::density_radius_scale(w.base.size(), spec.paper_n, d_int);

  // --- routers on the same downscaled corpus.
  auto routed = bench::route_workload(w.base, w.queries, P, 1);
  auto kd_tree = vptree::PartitionTree::build(
      w.base, {.target_partitions = P}, vptree::PartitionTreeKind::kKdTree);

  std::vector<std::vector<PartitionId>> vp_plans(w.queries.size());
  std::vector<std::vector<PartitionId>> kd_plans(w.queries.size());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const float radius = gt[q].back().dist * float(radius_scale);
    vp_plans[q] = routed.tree.route_ball(w.queries.row(q), radius);
    kd_plans[q] = kd_tree.tree.route_ball(w.queries.row(q), radius);
  }
  auto vp_tiled = bench::tile_plans(vp_plans, spec.n_queries);
  auto kd_tiled = bench::tile_plans(kd_plans, spec.n_queries);

  // --- local search costs at the paper's partition size. The calibration
  // corpus is 128-d; distance-evaluation work scales linearly with dim for
  // both methods. Exact KD search at high dimension degenerates toward a
  // full scan (the functional plane measures scan fractions near 1).
  const double dim_factor = double(w.base.dim()) / 128.0;
  std::vector<double> our_cost(
      P, dim_factor *
             costs.hnsw_query_seconds_at_scale(spec.paper_n / P, spec.beam));
  std::vector<double> kd_cost(
      P, dim_factor * costs.exact_search_seconds_at_scale(
                          spec.paper_n / P, /*scan_fraction=*/0.8));

  des::SearchSimConfig sim;
  sim.n_cores = P;
  sim.dim = w.base.dim();
  sim.route_seconds = costs.route_seconds(P);
  const auto ours = des::simulate_search(sim, vp_tiled, our_cost);
  const auto kd = des::simulate_search(sim, kd_tiled, kd_cost);

  std::printf(
      "%-12s %10.2f %12.2f %9.1fx   (d_int %.1f, parts/query %.0f vs %.0f of %zu)\n",
      spec.name, ours.makespan_seconds, kd.makespan_seconds,
      kd.makespan_seconds / ours.makespan_seconds, d_int,
      double(ours.total_jobs) / double(spec.n_queries),
      double(kd.total_jobs) / double(spec.n_queries), P);
}

}  // namespace

int main() {
  const Spec sift{"ANN_SIFT1B", "SIFT", 1'000'000'000, 8192, 65536, 10000, 8.0};
  const Spec deep{"DEEP1B", "DEEP", 1'000'000'000, 8192, 65536, 10000, 8.0};
  const Spec gist{"ANN_GIST1M", "GIST", 1'000'000, 16, 8192, 1000, 2.0};

  bench::print_header(
      "Table III (functional plane): measured wall-clock, downscaled, 16 workers");
  std::printf("%-12s %9s %6s %11s %6s %7s %8s %6s %7s %9s\n", "dataset",
              "ours (s)", "recall", "exactFq (s)", "recall", "parts/q",
              "KD (s)", "recall", "parts/q", "speedup");
  functional_plane(sift);
  functional_plane(deep);
  functional_plane(gist);
  std::printf(
      "\nNote: at downscaled partition sizes an exact SIMD scan is cheap, so\n"
      "the wall-clock gap understates the paper's; the model plane below\n"
      "restores paper-scale partition sizes where the gap opens up.\n");

  bench::print_header(
      "Table III (model plane): paper-scale extrapolation via DES, "
      "density-rescaled F(q)");
  std::printf("%-12s %10s %12s %9s\n", "dataset", "ours (s)", "KD-tree (s)",
              "speedup");
  model_plane(sift);
  model_plane(deep);
  model_plane(gist);

  std::printf(
      "\nPaper reference: 6.3 vs 85.6 s (13.6x) SIFT1B@8192; 7.1 vs 80.9 s\n"
      "(11.4x) DEEP1B@8192; 0.54 vs 4.6 s (8.5x) GIST1M@24 cores (we run the\n"
      "GIST router at 16 partitions: power-of-two median splits).\n");
  return 0;
}
