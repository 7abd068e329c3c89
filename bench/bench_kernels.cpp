/// Microbenchmarks (google-benchmark) of the computational kernels the
/// system is built on: SIMD distance functions, the top-k heap, HNSW
/// insert/search, VP routing, and the one-sided slot merge. These back the
/// calibration constants the performance model uses.

#include <benchmark/benchmark.h>

#include "annsim/common/rng.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/simd/distance.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace {

using namespace annsim;

std::vector<float> random_vec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = float(rng.normal());
  return v;
}

void BM_L2SqDispatched(benchmark::State& state) {
  const auto dim = std::size_t(state.range(0));
  auto a = random_vec(dim, 1), b = random_vec(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::l2_sq(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_L2SqDispatched)->Arg(16)->Arg(96)->Arg(128)->Arg(960);

void BM_L2SqScalar(benchmark::State& state) {
  const auto dim = std::size_t(state.range(0));
  auto a = random_vec(dim, 1), b = random_vec(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::l2_sq_scalar(a.data(), b.data(), dim));
  }
}
BENCHMARK(BM_L2SqScalar)->Arg(128)->Arg(960);

void BM_InnerProduct(benchmark::State& state) {
  const auto dim = std::size_t(state.range(0));
  auto a = random_vec(dim, 3), b = random_vec(dim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::inner_product(a.data(), b.data(), dim));
  }
}
BENCHMARK(BM_InnerProduct)->Arg(96)->Arg(128);

/// Scattered one-to-many distances, sized like an HNSW beam expansion
/// (range(0) = neighbors per expansion, 128-d rows from a 16k corpus).
/// Compare against BM_BeamExpansionPairwise to see the batching win.
void BM_BeamExpansionBatched(benchmark::State& state) {
  static auto w = data::make_sift_like(16384, 1, 21);
  const auto n = std::size_t(state.range(0));
  auto q = random_vec(w.base.dim(), 22);
  Rng rng(23);
  std::vector<std::uint32_t> ids(n);
  std::vector<float> out(n);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& id : ids) id = std::uint32_t(rng.uniform_below(w.base.size()));
    state.ResumeTiming();
    simd::l2_sq_batch(q.data(), w.base.row(0), w.base.stride(), w.base.dim(),
                      ids.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}
BENCHMARK(BM_BeamExpansionBatched)->Arg(8)->Arg(32)->Arg(64);

void BM_BeamExpansionPairwise(benchmark::State& state) {
  static auto w = data::make_sift_like(16384, 1, 21);
  const auto n = std::size_t(state.range(0));
  auto q = random_vec(w.base.dim(), 22);
  Rng rng(23);
  std::vector<std::uint32_t> ids(n);
  std::vector<float> out(n);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& id : ids) id = std::uint32_t(rng.uniform_below(w.base.size()));
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = simd::l2_sq(q.data(), w.base.row(ids[i]), w.base.dim());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}
BENCHMARK(BM_BeamExpansionPairwise)->Arg(8)->Arg(32)->Arg(64);

/// Contiguous one-to-many scan over the whole corpus — the BruteForceIndex
/// inner loop (squared-L2 space, rows prefetched ahead).
void BM_L2SqBatchContiguous(benchmark::State& state) {
  static auto w = data::make_sift_like(8192, 1, 24);
  auto q = random_vec(w.base.dim(), 25);
  std::vector<float> out(w.base.size());
  for (auto _ : state) {
    simd::l2_sq_batch(q.data(), w.base.row(0), w.base.stride(), w.base.dim(),
                      nullptr, w.base.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(w.base.size()));
}
BENCHMARK(BM_L2SqBatchContiguous);

void BM_TopKPush(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.uniformf();
  std::size_t i = 0;
  TopK topk(10);
  for (auto _ : state) {
    topk.push(values[i & 4095], GlobalId(i));
    ++i;
  }
}
BENCHMARK(BM_TopKPush);

void BM_BruteForceScan(benchmark::State& state) {
  static auto w = data::make_sift_like(8192, 16, 11);
  const simd::DistanceComputer dist(simd::Metric::kL2, w.base.dim());
  std::size_t q = 0;
  for (auto _ : state) {
    TopK topk(10);
    const float* qv = w.queries.row(q % w.queries.size());
    for (std::size_t i = 0; i < w.base.size(); ++i) {
      topk.push(dist(qv, w.base.row(i)), w.base.id(i));
    }
    benchmark::DoNotOptimize(topk);
    ++q;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(w.base.size()));
}
BENCHMARK(BM_BruteForceScan);

/// The actual BruteForceIndex path: blocked batched kernels in squared-L2
/// space, sqrt deferred to the k emitted results (vs the per-row sqrt +
/// dispatch of BM_BruteForceScan above).
void BM_BruteForceIndexScan(benchmark::State& state) {
  static auto w = data::make_sift_like(8192, 16, 11);
  const hnsw::BruteForceIndex index(&w.base, simd::Metric::kL2);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.search(w.queries.row(q % w.queries.size()), 10));
    ++q;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(w.base.size()));
}
BENCHMARK(BM_BruteForceIndexScan);

hnsw::HnswIndex& shared_index() {
  static auto w = data::make_sift_like(16384, 64, 12);
  static hnsw::HnswIndex index = [] {
    hnsw::HnswParams p;
    p.M = 16;
    p.ef_construction = 100;
    hnsw::HnswIndex idx(&w.base, p);
    idx.build();
    return idx;
  }();
  return index;
}

void BM_HnswSearch(benchmark::State& state) {
  auto& index = shared_index();
  static auto queries = data::make_sift_like(256, 64, 13).queries;
  const auto ef = std::size_t(state.range(0));
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.search(queries.row(q % queries.size()), 10, ef));
    ++q;
  }
}
BENCHMARK(BM_HnswSearch)->Arg(16)->Arg(64)->Arg(256);

void BM_HnswInsert(benchmark::State& state) {
  static auto w = data::make_sift_like(200000, 1, 14);
  hnsw::HnswParams p;
  p.M = 16;
  p.ef_construction = 100;
  hnsw::HnswIndex index(&w.base, p);
  LocalId next = 0;
  for (auto _ : state) {
    index.insert(next++);
    if (next == w.base.size()) {
      state.SkipWithError("corpus exhausted");
      break;
    }
  }
}
BENCHMARK(BM_HnswInsert)->Iterations(20000);

void BM_VpRouteTopk(benchmark::State& state) {
  static auto w = data::make_sift_like(32768, 256, 15);
  static auto built = [] {
    vptree::PartitionTreeParams params;
    params.target_partitions = 1024;
    params.vantage_candidates = 8;
    params.vantage_sample = 64;
    return vptree::PartitionTree::build(w.base, params);
  }();
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        built.tree.route_topk(w.queries.row(q % w.queries.size()), 4));
    ++q;
  }
}
BENCHMARK(BM_VpRouteTopk);

void BM_SlotMerge(benchmark::State& state) {
  // A slot already holding partition 0's k-NN takes partition 1's: the
  // merge a second accumulate of a 2-probe query performs.
  const core::SlotLayout layout{10, 4};
  Rng rng(16);
  std::vector<Neighbor> local(20);
  for (std::size_t i = 0; i < local.size(); ++i) {
    local[i] = {rng.uniformf(), GlobalId(i)};
  }
  std::sort(local.begin(), local.begin() + 10);
  std::sort(local.begin() + 10, local.end());
  const auto merge = core::knn_slot_merge(layout);
  const std::span<const Neighbor> all(local);
  std::vector<std::byte> merged_once(layout.slot_bytes());
  merge(merged_once, core::encode_slot_update(all.first(10), layout, 0, 0));
  const auto update = core::encode_slot_update(all.last(10), layout, 1, 0);
  std::vector<std::byte> slot(layout.slot_bytes());
  for (auto _ : state) {
    slot = merged_once;
    merge(slot, update);
    benchmark::DoNotOptimize(slot.data());
  }
}
BENCHMARK(BM_SlotMerge);

}  // namespace

BENCHMARK_MAIN();
