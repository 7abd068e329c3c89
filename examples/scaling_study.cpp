/// Capacity planning with the performance model: "how many cores do I need
/// to answer my batch within a deadline, and is replication worth it?"
///
/// Builds a real VP router over a sample of the target corpus, routes the
/// real query batch, calibrates per-core costs on this machine, and sweeps
/// simulated cluster sizes with the discrete-event simulator — the same
/// tooling the paper-reproduction benches use, exposed as a user-facing
/// what-if study.
///
/// Run: ./scaling_study [batch_size] [target_corpus_size]

#include <cstdio>
#include <cstdlib>

#include "annsim/cluster/calibration.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/des/search_sim.hpp"
#include "annsim/vptree/partition_tree.hpp"

int main(int argc, char** argv) {
  using namespace annsim;

  const std::size_t batch = argc > 1 ? std::size_t(std::atoll(argv[1])) : 20000;
  const std::size_t corpus =
      argc > 2 ? std::size_t(std::atoll(argv[2])) : 100'000'000;

  // A corpus sample large enough for faithful routing geometry.
  const std::size_t sample_n = 32768;
  data::Workload w = data::make_sift_like(sample_n, batch, 55);
  std::printf("planning for %zu queries over a %zu-point corpus "
              "(routing sampled at %zu points)\n",
              batch, corpus, sample_n);

  // Calibrate per-core costs on this machine.
  cluster::CalibrationConfig cal;
  cal.small_n = 4000;
  cal.large_n = 16000;
  const auto costs = cluster::calibrate(w.base, w.queries, cal);
  std::printf("calibrated: %.0f ns/distance, %.0f us/HNSW query @16k\n",
              costs.dist_eval * 1e9, costs.hnsw_query_seconds(16000) * 1e6);

  std::printf("\n%8s %8s %16s %16s %14s\n", "cores", "nodes", "r=1 batch (s)",
              "r=3 batch (s)", "queries/s (r=3)");
  for (std::size_t cores : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    vptree::PartitionTreeParams params;
    params.target_partitions = cores;
    params.vantage_candidates = 8;
    params.vantage_sample = 64;
    auto built = vptree::PartitionTree::build(w.base, params);

    std::vector<std::vector<PartitionId>> plans(w.queries.size());
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      plans[q] = built.tree.route_topk(w.queries.row(q), 4).partitions;
    }

    std::vector<double> cost(cores,
                             costs.hnsw_query_seconds_at_scale(corpus / cores));
    des::SearchSimConfig sim;
    sim.n_cores = cores;
    sim.dim = w.base.dim();
    sim.route_seconds = costs.route_seconds(cores);
    auto r1 = des::simulate_search(sim, plans, cost);
    sim.replication = 3;
    auto r3 = des::simulate_search(sim, plans, cost);

    std::printf("%8zu %8zu %16.3f %16.3f %14.0f\n", cores,
                sim.machine.nodes_for_cores(cores), r1.makespan_seconds,
                r3.makespan_seconds, double(batch) / r3.makespan_seconds);
  }
  std::printf("\nPick the smallest configuration whose batch time meets the\n"
              "deadline; replication pays when the query mix is skewed.\n");
  return 0;
}
