/// Ablations of the space-partitioning choices (§III-B):
///  (1) VP-tree vs KD-tree routing: partitions whose region intersects the
///      exact k-NN ball, as a function of dimensionality — the pruning
///      behaviour behind Table III;
///  (2) the Yianilos vantage-point selection heuristic (second moment about
///      the median) vs random vantage points, measured by how many probes
///      the router needs to cover the true neighbors.

#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace annsim;

void routing_vs_dimension() {
  bench::print_header(
      "Ablation 3: exact-search partition visits vs dimension (16 partitions)");
  std::printf("%8s %22s %22s\n", "dim", "VP-tree parts/query",
              "KD-tree parts/query");

  for (std::size_t dim : {8u, 32u, 128u, 512u}) {
    auto w = data::make_syn(bench::scaled(16384), dim, 100, 256, 888 + dim);
    auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);

    vptree::PartitionTreeParams vp_params;
    vp_params.target_partitions = 16;
    vp_params.vantage_candidates = 16;
    vp_params.vantage_sample = 64;
    auto vp = vptree::PartitionTree::build(w.base, vp_params);

    auto kd = vptree::PartitionTree::build(
        w.base, {.target_partitions = 16}, vptree::PartitionTreeKind::kKdTree);

    double vp_visits = 0, kd_visits = 0;
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      const float radius = gt[q].back().dist;
      vp_visits += double(vp.tree.route_ball(w.queries.row(q), radius).size());
      kd_visits += double(kd.tree.route_ball(w.queries.row(q), radius).size());
    }
    std::printf("%8zu %22.2f %22.2f\n", dim,
                vp_visits / double(w.queries.size()),
                kd_visits / double(w.queries.size()));
  }
  std::printf(
      "\nBoth visit sets grow toward all partitions with dimension. On these\n"
      "clustered synthetics the two routers trade places at moderate dims —\n"
      "KD axis splits can align with cluster structure. The VP advantage the\n"
      "paper reports materializes at billion-point density, where the k-NN\n"
      "ball shrinks and escapes VP spheres but still crosses KD cells that\n"
      "are unbounded in most dimensions (see bench_table3's model plane).\n");
}

void radius_shrink() {
  // The Table III mechanism isolated: shrink the query ball (what growing
  // the corpus to 10^9 points does to the k-NN radius) and watch the visit
  // sets at two partition granularities. The VP/KD separation widens with
  // the partition count: fine-grained KD cells are axis-bounded in only
  // log2(P) of 128 dimensions and keep intersecting balls that fine-grained
  // VP spheres have long released.
  bench::print_header(
      "Ablation 3b: partition visits vs ball radius (SIFT-like, 128-d)");
  auto w = data::make_sift_like(bench::scaled(32768), 256, 890);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);

  for (std::size_t parts : {64u, 1024u}) {
    vptree::PartitionTreeParams vp_params;
    vp_params.target_partitions = parts;
    vp_params.vantage_candidates = 8;
    vp_params.vantage_sample = 64;
    auto vp = vptree::PartitionTree::build(w.base, vp_params);
    auto kd = vptree::PartitionTree::build(
        w.base, {.target_partitions = parts},
        vptree::PartitionTreeKind::kKdTree);

    std::printf("\nP = %zu partitions\n", parts);
    std::printf("%14s %18s %18s %10s\n", "radius scale", "VP parts/query",
                "KD parts/query", "KD/VP");
    for (double scale : {1.0, 0.7, 0.5, 0.35, 0.25}) {
      double vp_visits = 0, kd_visits = 0;
      for (std::size_t q = 0; q < w.queries.size(); ++q) {
        const float radius = gt[q].back().dist * float(scale);
        vp_visits +=
            double(vp.tree.route_ball(w.queries.row(q), radius).size());
        kd_visits +=
            double(kd.tree.route_ball(w.queries.row(q), radius).size());
      }
      vp_visits /= double(w.queries.size());
      kd_visits /= double(w.queries.size());
      std::printf("%14.2f %18.1f %18.1f %10.2f\n", scale, vp_visits, kd_visits,
                  kd_visits / vp_visits);
    }
  }
}

void vantage_heuristic() {
  bench::print_header(
      "Ablation 4: vantage-point heuristic vs random vantage points");
  auto w = data::make_sift_like(bench::scaled(16384), 512, 999);
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);

  auto coverage_at = [&](const vptree::PartitionBuildResult& built,
                         std::size_t probes) {
    std::size_t hit = 0, total = 0;
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      auto dec = built.tree.route_topk(w.queries.row(q), probes);
      std::vector<char> visited(built.tree.n_partitions(), 0);
      for (auto p : dec.partitions) visited[p] = 1;
      for (const auto& nb : gt[q]) {
        ++total;
        if (visited[built.assignment[nb.id]] != 0) ++hit;
      }
    }
    return double(hit) / double(total);
  };

  vptree::PartitionTreeParams heuristic;
  heuristic.target_partitions = 32;
  heuristic.vantage_candidates = 100;  // the paper's candidate count
  heuristic.vantage_sample = 256;
  auto with_heuristic = vptree::PartitionTree::build(w.base, heuristic);

  vptree::PartitionTreeParams random = heuristic;
  random.vantage_candidates = 1;  // a single sampled candidate == random
  auto with_random = vptree::PartitionTree::build(w.base, random);

  std::printf("%10s %22s %22s\n", "n_probe", "heuristic coverage",
              "random-vp coverage");
  for (std::size_t probes : {1u, 2u, 4u, 8u, 16u}) {
    std::printf("%10zu %22.3f %22.3f\n", probes,
                coverage_at(with_heuristic, probes),
                coverage_at(with_random, probes));
  }
  std::printf(
      "\nCoverage = fraction of true 10-NN whose partition is probed. The\n"
      "spread-maximizing heuristic should dominate or match random vantage\n"
      "selection at every probe budget.\n");
}

}  // namespace

int main() {
  routing_vs_dimension();
  radius_shrink();
  vantage_heuristic();
  return 0;
}
