#pragma once
/// \file bench_common.hpp
/// \brief Shared plumbing for the experiment-reproduction benches: workload
/// construction, routing-plan extraction, live calibration, and table
/// printing. Each bench binary regenerates one table/figure of the paper.
///
/// Scale knobs: every bench runs at a downscaled base size by default so the
/// whole harness finishes in minutes on one core. Set ANNSIM_BENCH_SCALE
/// (e.g. 4) to multiply the base sizes, and ANNSIM_BENCH_FAST=1 to shrink
/// them further for smoke runs.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "annsim/cluster/calibration.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::bench {

inline double scale_factor() {
  if (const char* fast = std::getenv("ANNSIM_BENCH_FAST");
      fast != nullptr && fast[0] == '1') {
    return 0.25;
  }
  if (const char* s = std::getenv("ANNSIM_BENCH_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t n) {
  auto v = std::size_t(double(n) * scale_factor());
  return std::max<std::size_t>(v, 1024);
}

/// Calibrate compute costs once per process on a SIFT-like corpus
/// (ANNSIM_BENCH_NO_CALIBRATE=1 falls back to the canned constants).
inline const cluster::CalibratedCosts& costs() {
  static const cluster::CalibratedCosts c = [] {
    if (const char* no = std::getenv("ANNSIM_BENCH_NO_CALIBRATE");
        no != nullptr && no[0] == '1') {
      return cluster::default_costs();
    }
    auto w = data::make_sift_like(20000, 64, 424242);
    cluster::CalibrationConfig cfg;
    cfg.small_n = 4000;
    cfg.large_n = 16000;
    cfg.n_queries = 32;
    return cluster::calibrate(w.base, w.queries, cfg);
  }();
  return c;
}

/// Build the VP router over `base` at `n_partitions` and route every query
/// with `n_probe` best-first probes — the plans the DES replays.
struct RoutedWorkload {
  vptree::PartitionTree tree;
  std::vector<PartitionId> assignment;
  std::vector<std::size_t> partition_sizes;
  std::vector<std::vector<PartitionId>> plans;
};

inline RoutedWorkload route_workload(const data::Dataset& base,
                                     const data::Dataset& queries,
                                     std::size_t n_partitions,
                                     std::size_t n_probe,
                                     std::uint64_t seed = 11) {
  vptree::PartitionTreeParams params;
  params.target_partitions = n_partitions;
  // Keep vantage scoring cheap for large trees; quality is insensitive.
  params.vantage_candidates = 8;
  params.vantage_sample = 64;
  params.seed = seed;
  auto built = vptree::PartitionTree::build(base, params);
  RoutedWorkload out{std::move(built.tree), std::move(built.assignment),
                     std::move(built.partition_sizes), {}};
  out.plans.resize(queries.size());
  const std::size_t probes = std::min(n_probe, n_partitions);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out.plans[q] = out.tree.route_topk(queries.row(q), probes).partitions;
  }
  return out;
}

/// Replicate a downscaled plan set to `n_queries` entries (the paper uses
/// 10^4 queries; we reuse routed plans cyclically to reach that count).
inline std::vector<std::vector<PartitionId>> tile_plans(
    const std::vector<std::vector<PartitionId>>& plans, std::size_t n_queries) {
  std::vector<std::vector<PartitionId>> out;
  out.reserve(n_queries);
  for (std::size_t i = 0; i < n_queries; ++i) {
    out.push_back(plans[i % plans.size()]);
  }
  return out;
}

inline void print_header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

}  // namespace annsim::bench
