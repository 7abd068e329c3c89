/// Ablations of the paper's design choices (§IV, §IV-C1), on the model at
/// the paper's core counts, over the same routed plans and costs:
///  (1) master-worker vs multiple-owner dispatch — the paper saw a small win
///      for multiple-owner that deteriorates with core count (and it cannot
///      be combined with replication-based load balancing);
///  (2) one-sided RMA result accumulation vs two-sided sends — the paper's
///      fix for the master-side result-collection bottleneck.

#include <cstdio>
#include <vector>

#include "annsim/des/search_sim.hpp"
#include "bench_common.hpp"

namespace {

using namespace annsim;

struct Row {
  std::size_t cores;
  des::SearchSimResult one_sided, two_sided, owner;
};

std::vector<Row> simulate() {
  const auto& costs = bench::costs();
  auto w = data::make_sift_like(bench::scaled(131072), 10000, 778);
  std::vector<Row> rows;
  for (std::size_t cores : {256u, 1024u, 4096u, 8192u}) {
    auto routed = bench::route_workload(w.base, w.queries, cores, 4);
    const auto& plans = routed.plans;
    std::vector<double> cost(cores,
                             costs.hnsw_query_seconds_at_scale(1'000'000'000 / cores));
    des::SearchSimConfig sim;
    sim.n_cores = cores;
    sim.dim = w.base.dim();
    sim.route_seconds = costs.route_seconds(cores);
    Row row{cores, {}, {}, {}};
    sim.one_sided = true;
    row.one_sided = des::simulate_search(sim, plans, cost);
    sim.one_sided = false;
    row.two_sided = des::simulate_search(sim, plans, cost);
    sim.multiple_owner = true;
    row.owner = des::simulate_search(sim, plans, cost);
    rows.push_back(std::move(row));
  }
  return rows;
}

double gain(double base, double alt) { return (base - alt) / base * 100.0; }

void strategies_model(const std::vector<Row>& rows) {
  bench::print_header(
      "Ablation 1 (model): master-worker vs multiple-owner dispatch, SIFT1B");
  std::printf("%8s %14s %14s %14s %12s %12s %12s\n", "cores", "mw 2-sided (s)",
              "mw 1-sided (s)", "owner (s)", "vs 2-sided", "vs 1-sided",
              "master busy");
  for (const Row& r : rows) {
    std::printf("%8zu %14.3f %14.3f %14.3f %11.1f%% %11.1f%% %11.1f%%\n",
                r.cores, r.two_sided.makespan_seconds,
                r.one_sided.makespan_seconds, r.owner.makespan_seconds,
                gain(r.two_sided.makespan_seconds, r.owner.makespan_seconds),
                gain(r.one_sided.makespan_seconds, r.owner.makespan_seconds),
                r.owner.master_busy_seconds / r.owner.makespan_seconds * 100.0);
  }
  std::printf(
      "\nAll at r = 1 (owners cannot use workgroup replication); gains are the\n"
      "owner's over master-worker. Master-worker routes every query on the\n"
      "master; multiple-owner moves routing and the two-sided merge onto each\n"
      "query's owner core, where they compete with job service, and pays one\n"
      "more hop per query for the answer. 'master busy' is the owner run's\n"
      "master share of the makespan (scatter and answer receipt only).\n");
}

void onesided_model(const std::vector<Row>& rows) {
  bench::print_header(
      "Ablation 2 (model): one-sided RMA vs two-sided result returns, SIFT1B");
  std::printf("%8s %16s %16s %10s\n", "cores", "one-sided (s)",
              "two-sided (s)", "gain");
  for (const Row& r : rows) {
    std::printf("%8zu %16.3f %16.3f %9.1f%%\n", r.cores,
                r.one_sided.makespan_seconds, r.two_sided.makespan_seconds,
                gain(r.two_sided.makespan_seconds, r.one_sided.makespan_seconds));
  }
  std::printf(
      "\nThe two-sided master-side merge serializes result collection — the\n"
      "scalability bottleneck §IV-C1 reports; one-sided accumulation removes\n"
      "it, and the gain grows with core count (result volume).\n");
}

}  // namespace

int main() {
  const auto rows = simulate();
  strategies_model(rows);
  onesided_model(rows);
  return 0;
}
