/// \file bench_hnsw_hotpath.cpp
/// \brief End-to-end hot-path benchmark for the frozen (FlatGraph) HNSW
/// search: QPS at several beam widths, ns per distance computation for the
/// batched kernels, recall@10 against a brute-force oracle, and a global
/// allocation counter proving the frozen search path performs no scratch
/// allocations in steady state (the only allocation per search is the
/// returned result vector itself). The same budget gates the SQ8 tier's
/// search (same kernel over codes, re-ranked in place) on the first 10k
/// rows, and a second budget gates the build: the linked graph's lists are
/// allocated when the index is constructed, so an insert allocates nothing
/// once its scratch is warm.
///
/// Each beam width also reports the traversal's exact work: distance
/// evaluations and expansions per query, counted by running the shared beam
/// search over the frozen graph with counting adjacency and distance
/// callables. The build is single-threaded, so the graph, and with it these
/// counters, are deterministic: equal counters across two versions of the
/// library mean the same traversal. `graph_digest` (FNV-1a 64 of the
/// built index's to_bytes()) pins the graph itself: equal digests across two
/// versions mean they built the same graph.
///
/// Plain binary (no google-benchmark) so it can run in CI smoke jobs and
/// emit a machine-readable report:
///
///   bench_hnsw_hotpath [--n 50000] [--queries 500] [--out BENCH_hnsw.json]
///
/// Exit status is non-zero if either allocation budget (one allocation per
/// search, 0.01 per insert across build()) is exceeded, so CI catches
/// scratch-pool regressions without parsing the report.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/hnsw/layer_search.hpp"
#include "annsim/quant/sq_segment.hpp"
#include "annsim/recovery/checkpoint.hpp"
#include "annsim/simd/distance.hpp"

// ---- global allocation counter -------------------------------------------
// Counts every operator-new in the process. The bench samples the counter
// around timed loops, so setup noise doesn't matter.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// --------------------------------------------------------------------------

namespace {

using namespace annsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::size_t n = 50000;
  std::size_t n_queries = 500;
  std::string out = "BENCH_hnsw.json";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      o.n = std::size_t(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      o.n_queries = std::size_t(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      o.out = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return o;
}

struct EfResult {
  std::size_t ef;
  double qps;
  double recall_at_10;
  double allocs_per_search;
  double dist_evals_per_query;
  double expansions_per_query;
};

double recall_at_k(const std::vector<Neighbor>& got,
                   const std::vector<Neighbor>& want, std::size_t k) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < k && i < got.size(); ++i) {
    for (std::size_t j = 0; j < k && j < want.size(); ++j) {
      if (got[i].id == want[j].id) {
        ++hits;
        break;
      }
    }
  }
  return double(hits) / double(k);
}

/// Time the scattered batched kernel the beam expansion uses; returns ns per
/// distance computation.
double measure_ns_per_distance(const data::Dataset& base, bool scattered) {
  Rng rng(321);
  std::vector<float> q(base.dim());
  for (auto& x : q) x = float(rng.normal());
  constexpr std::size_t kBeam = 32;
  std::vector<std::uint32_t> ids(kBeam);
  std::vector<float> out(scattered ? kBeam : base.size());
  const std::size_t reps = scattered ? 20000 : 200;
  std::size_t n_dists = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    if (scattered) {
      for (auto& id : ids) id = std::uint32_t(rng.uniform_below(base.size()));
      simd::l2_sq_batch(q.data(), base.row(0), base.stride(), base.dim(),
                        ids.data(), kBeam, out.data());
      n_dists += kBeam;
    } else {
      simd::l2_sq_batch(q.data(), base.row(0), base.stride(), base.dim(),
                        nullptr, base.size(), out.data());
      n_dists += base.size();
    }
  }
  return seconds_since(t0) * 1e9 / double(n_dists);
}

/// Exact beam work per query at width `ef`: distance evaluations and
/// expansions (adjacency reads), summed over greedy descent and the layer-0
/// beam of hnsw::beam_search on the frozen graph.
std::pair<double, double> traversal_per_query(const hnsw::HnswIndex& index,
                                              const data::Dataset& base,
                                              const data::Dataset& queries,
                                              std::size_t ef) {
  const hnsw::FlatGraph& g = index.flat_graph();
  const simd::DistanceComputer dist(index.params().metric, base.dim());
  hnsw::ScratchPool scratch;
  auto s = scratch.acquire(g.size(), g.max_degree());
  std::uint64_t dist_evals = 0;
  std::uint64_t expansions = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const float* query = queries.row(q);
    hnsw::beam_search(
        [&](LocalId v, int layer) {
          ++expansions;
          return g.neighbors(v, layer);
        },
        [&](const LocalId* ids, std::size_t m, float* out) {
          dist_evals += m;
          dist.search_dist_batch(query, base.row(0), base.stride(), ids, m,
                                 out);
        },
        [](LocalId) {}, g.entry_point(), g.max_level(), ef, *s);
  }
  const double nq = double(queries.size());
  return {double(dist_evals) / nq, double(expansions) / nq};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  auto w = data::make_sift_like(opt.n, opt.n_queries, 2026);

  std::printf("bench_hnsw_hotpath: n=%zu queries=%zu dim=%zu isa=%s\n", opt.n,
              opt.n_queries, w.base.dim(), simd::kernel_isa().c_str());

  hnsw::HnswParams params;
  params.M = 16;
  params.ef_construction = 100;
  // Single-threaded build: deterministic graph, so the traversal counters
  // below repeat exactly. Every operator-new across build() counts against
  // the insert budget: inserts allocate nothing once their scratch is warm
  // (the lists are allocated at construction), so only the scratch warm-up
  // and freeze()'s handful remain.
  constexpr double kAllocBudgetPerInsert = 0.01;
  hnsw::HnswIndex index(&w.base, params);
  const std::uint64_t build_alloc0 =
      g_alloc_count.load(std::memory_order_relaxed);
  auto t0 = Clock::now();
  index.build();
  const double build_s = seconds_since(t0);
  const double allocs_per_insert =
      double(g_alloc_count.load(std::memory_order_relaxed) - build_alloc0) /
      double(opt.n);
  const bool insert_alloc_ok = allocs_per_insert <= kAllocBudgetPerInsert;
  const std::uint64_t graph_digest = recovery::checksum64(index.to_bytes());
  std::printf("  build: %.2fs (%zu nodes, frozen=%d, 1 thread) "
              "allocs/insert=%.3f graph_digest=%016llx\n",
              build_s, index.size(), int(index.is_frozen()),
              allocs_per_insert, (unsigned long long)graph_digest);

  t0 = Clock::now();
  auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  std::printf("  ground truth: %.2fs\n", seconds_since(t0));

  const double ns_scattered = measure_ns_per_distance(w.base, /*scattered=*/true);
  const double ns_contig = measure_ns_per_distance(w.base, /*scattered=*/false);
  std::printf("  ns/distance: %.2f scattered, %.2f contiguous\n", ns_scattered,
              ns_contig);

  // Steady-state allocation budget per search: the returned result vector.
  constexpr double kAllocBudgetPerSearch = 1.0;
  bool alloc_ok = true;

  std::vector<EfResult> results;
  for (const std::size_t ef : {std::size_t(16), std::size_t(64), std::size_t(128)}) {
    // Warm up scratch pool + caches.
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      (void)index.search(w.queries.row(q), 10, ef);
    }

    const std::size_t reps = 3;
    double recall_sum = 0.0;
    const std::uint64_t alloc0 = g_alloc_count.load(std::memory_order_relaxed);
    t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t q = 0; q < w.queries.size(); ++q) {
        auto res = index.search(w.queries.row(q), 10, ef);
        if (r == 0) recall_sum += recall_at_k(res, gt[q], 10);
      }
    }
    const double elapsed = seconds_since(t0);
    const std::uint64_t alloc1 = g_alloc_count.load(std::memory_order_relaxed);

    const double n_searches = double(reps) * double(w.queries.size());
    EfResult er;
    er.ef = ef;
    er.qps = n_searches / elapsed;
    er.recall_at_10 = recall_sum / double(w.queries.size());
    er.allocs_per_search = double(alloc1 - alloc0) / n_searches;
    std::tie(er.dist_evals_per_query, er.expansions_per_query) =
        traversal_per_query(index, w.base, w.queries, ef);
    results.push_back(er);
    if (er.allocs_per_search > kAllocBudgetPerSearch + 0.01) alloc_ok = false;

    std::printf("  ef=%-4zu qps=%-10.0f recall@10=%.4f allocs/search=%.3f "
                "dist_evals/q=%.3f expansions/q=%.3f\n",
                er.ef, er.qps, er.recall_at_10, er.allocs_per_search,
                er.dist_evals_per_query, er.expansions_per_query);
  }

  // SQ8 segment over the first 10k rows: graph search over codes plus the
  // exact re-rank must stay within the same per-search budget.
  const data::Dataset sq_rows =
      w.base.slice(0, std::min<std::size_t>(opt.n, 10000));
  ThreadPool pool;
  quant::SqSegmentParams sq_params;
  sq_params.hnsw = params;
  const auto seg = quant::SqSegment::build(sq_rows, sq_params, &pool);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    (void)seg->search(w.queries.row(q), 10, 64);
  }
  const std::uint64_t sq_alloc0 = g_alloc_count.load(std::memory_order_relaxed);
  t0 = Clock::now();
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    (void)seg->search(w.queries.row(q), 10, 64);
  }
  const double sq_qps = double(w.queries.size()) / seconds_since(t0);
  const double sq_allocs =
      double(g_alloc_count.load(std::memory_order_relaxed) - sq_alloc0) /
      double(w.queries.size());
  if (sq_allocs > kAllocBudgetPerSearch + 0.01) alloc_ok = false;
  std::printf("  sq8 rows=%zu ef=64 qps=%-10.0f allocs/search=%.3f\n",
              sq_rows.size(), sq_qps, sq_allocs);

  if (std::FILE* f = std::fopen(opt.out.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"hnsw_hotpath\",\n");
    std::fprintf(f, "  \"kernel_isa\": \"%s\",\n", simd::kernel_isa().c_str());
    std::fprintf(f, "  \"n\": %zu,\n  \"dim\": %zu,\n  \"queries\": %zu,\n",
                 opt.n, w.base.dim(), opt.n_queries);
    std::fprintf(f, "  \"M\": %zu,\n  \"ef_construction\": %zu,\n", params.M,
                 params.ef_construction);
    std::fprintf(f, "  \"build_threads\": 1,\n");
    std::fprintf(f, "  \"build_seconds\": %.3f,\n", build_s);
    std::fprintf(f, "  \"graph_digest\": \"%016llx\",\n",
                 (unsigned long long)graph_digest);
    std::fprintf(f, "  \"alloc_budget_per_insert\": %.2f,\n",
                 kAllocBudgetPerInsert);
    std::fprintf(f, "  \"allocs_per_insert\": %.3f,\n", allocs_per_insert);
    std::fprintf(f, "  \"ns_per_distance_scattered\": %.3f,\n", ns_scattered);
    std::fprintf(f, "  \"ns_per_distance_contiguous\": %.3f,\n", ns_contig);
    std::fprintf(f, "  \"alloc_budget_per_search\": %.1f,\n",
                 kAllocBudgetPerSearch);
    std::fprintf(f, "  \"scratch_alloc_free\": %s,\n",
                 alloc_ok ? "true" : "false");
    std::fprintf(f, "  \"search\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"ef\": %zu, \"qps\": %.1f, \"recall_at_10\": %.4f, "
                   "\"allocs_per_search\": %.3f, "
                   "\"dist_evals_per_query\": %.3f, "
                   "\"expansions_per_query\": %.3f}%s\n",
                   r.ef, r.qps, r.recall_at_10, r.allocs_per_search,
                   r.dist_evals_per_query, r.expansions_per_query,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"sq8_search\": {\"rows\": %zu, \"ef\": 64, \"qps\": %.1f, "
                 "\"allocs_per_search\": %.3f}\n}\n",
                 sq_rows.size(), sq_qps, sq_allocs);
    std::fclose(f);
    std::printf("  wrote %s\n", opt.out.c_str());
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out.c_str());
    return 2;
  }

  if (!alloc_ok) {
    std::fprintf(stderr,
                 "FAIL: frozen or SQ8 search exceeded the steady-state "
                 "allocation budget (%.1f allocs/search)\n",
                 kAllocBudgetPerSearch);
  }
  if (!insert_alloc_ok) {
    std::fprintf(stderr,
                 "FAIL: build exceeded the insert allocation budget "
                 "(%.3f > %.2f allocs/insert)\n",
                 allocs_per_insert, kAllocBudgetPerInsert);
  }
  return alloc_ok && insert_alloc_ok ? 0 : 1;
}
