#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "annsim/common/aligned_buffer.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/quant/sq_codec.hpp"
#include "annsim/recovery/write_log.hpp"
#include "annsim/segment/segmented_index.hpp"
#include "annsim/simd/distance.hpp"

namespace perfbench {

using namespace annsim;

namespace {

/// Mean microseconds per query of `search(query_row)` over the query set;
/// the median of `reps` passes.
template <typename F>
double us_per_query(const data::Dataset& queries, std::size_t reps,
                    F&& search) {
  std::vector<double> passes;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t q = 0; q < queries.size(); ++q) search(queries.row(q));
    passes.push_back(seconds_since(t0) * 1e6 / double(queries.size()));
  }
  return median(passes);
}

template <typename F>
double mean_us(std::size_t n, F&& op) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) op(i);
  return seconds_since(t0) * 1e6 / double(n);
}

}  // namespace

void probe_core(core::DistributedAnnEngine& engine,
                const data::Dataset& queries, Report& r) {
  const double nq = double(queries.size());
  std::vector<core::SearchStats> runs(3);
  for (auto& st : runs) (void)engine.search(queries, kK, kEf, &st);
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& st : runs) v.push_back(field(st));
    return median(v);
  };
  using St = core::SearchStats;
  const St& st = runs.front();
  const double jobs = double(st.total_jobs);
  r.set("core.route_us_per_q",
        med([&](const St& s) { return s.master_route_seconds * 1e6 / nq; }));
  r.set("core.dispatch_us_per_q",
        med([&](const St& s) { return s.master_dispatch_seconds * 1e6 / nq; }));
  r.set("core.merge_us_per_q",
        med([&](const St& s) { return s.master_merge_seconds * 1e6 / nq; }));
  r.set("core.worker_compute_us_per_job", med([&](const St& s) {
          return s.worker_compute_seconds * 1e6 / jobs;
        }));
  r.set("core.worker_comm_us_per_job",
        med([&](const St& s) { return s.worker_comm_seconds * 1e6 / jobs; }));
  // The paper's Fig 5 idle share: master time outside route/dispatch/merge.
  r.set("core.master_idle_share", med([](const St& s) {
          return 1.0 - (s.master_route_seconds + s.master_dispatch_seconds +
                        s.master_merge_seconds) /
                           s.total_seconds;
        }));
  // Exact counts: routing and the replica round-robin are deterministic.
  const auto max_jobs = *std::max_element(st.jobs_per_worker.begin(),
                                          st.jobs_per_worker.end());
  r.set("core.jobs_per_query", jobs / nq);
  r.set("core.job_imbalance",
        double(max_jobs) / (jobs / double(st.jobs_per_worker.size())));
  r.set("mpi.msgs_per_query", double(st.traffic.p2p_messages) / nq);
  r.set("mpi.bytes_per_query",
        double(st.traffic.p2p_bytes + st.traffic.rma_bytes +
               st.traffic.collective_bytes) /
            nq);
  r.set("mpi.rma_ops_per_query", double(st.traffic.rma_ops) / nq);

  // One call at batch size 1 and at 32: the gap is the fixed cost a batch
  // pays (runtime spawn, dispatch, epoch) before any query work.
  auto call_ms = [&](std::size_t batch, std::size_t calls) {
    std::vector<double> ms;
    for (std::size_t c = 0; c < calls; ++c) {
      const std::size_t begin = (c * batch) % (queries.size() - batch + 1);
      const auto sub = queries.slice(begin, begin + batch);
      const auto t0 = Clock::now();
      (void)engine.search(sub, kK, kEf);
      ms.push_back(ms_since(t0));
    }
    return median(ms);
  };
  r.set("core.search_ms.b1", call_ms(1, 200));
  r.set("core.search_ms.b32", call_ms(32, 60));
}

void probe_mpi_runtime(std::size_t ranks, Report& r) {
  std::vector<double> us;
  for (int i = 0; i < 300; ++i) {
    const auto t0 = Clock::now();
    mpi::Runtime rt{static_cast<int>(ranks)};
    rt.run([](mpi::Comm&) {});
    us.push_back(seconds_since(t0) * 1e6);
  }
  r.set("mpi.runtime_run_us", median(us));
}

void probe_vptree(const core::DistributedAnnEngine& engine,
                  const data::Dataset& queries, Report& r) {
  const auto& router = engine.router();
  const std::size_t probes = engine.config().n_probe;
  std::size_t sink = 0;
  r.set("vptree.route_us", us_per_query(queries, 5, [&](const float* q) {
          sink += router.route_topk(q, probes).partitions.size();
        }));
  ANNSIM_CHECK(sink > 0);
}

void probe_hnsw(const data::Dataset& rows, const core::EngineConfig& cfg,
                const data::Dataset& queries, Report& r) {
  hnsw::HnswIndex index(&rows, cfg.hnsw);
  const auto t0 = Clock::now();
  index.build();
  r.set("hnsw.build_s", seconds_since(t0));
  std::size_t sink = 0;
  r.set("hnsw.search_us", us_per_query(queries, 3, [&](const float* q) {
          sink += index.search(q, kK, kEf).size();
        }));
  ANNSIM_CHECK(sink > 0);
}

void probe_simd(const data::Dataset& rows, const data::Dataset& queries,
                Report& r) {
  constexpr std::size_t kRows = 1024;
  const std::size_t n_queries = std::min<std::size_t>(queries.size(), 200);
  Rng rng(7);
  std::vector<std::uint32_t> ids(kRows);
  for (auto& id : ids) id = std::uint32_t(rng.uniform_below(rows.size()));
  std::vector<float> out(kRows);
  float sink = 0.0f;
  auto ns_per_distance = [&](auto&& kernel) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t q = 0; q < n_queries; ++q) {
        kernel(queries.row(q));
        sink += out[q % kRows];
      }
      reps.push_back(seconds_since(t0) * 1e9 / double(n_queries * kRows));
    }
    return median(reps);
  };
  r.set("simd.l2_ns", ns_per_distance([&](const float* q) {
          simd::l2_sq_batch(q, rows.row(0), rows.stride(), rows.dim(),
                            ids.data(), kRows, out.data());
        }));

  const auto codec = quant::SqCodec::train(rows);
  const std::size_t stride = codec.code_stride();
  AlignedBuffer<std::uint8_t> codes(rows.size() * stride);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    codec.encode(rows.row_span(i), codes.data() + i * stride);
  }
  r.set("simd.l2_u8_ns", ns_per_distance([&](const float* q) {
          simd::l2_sq_batch_u8(q, codes.data(), stride, rows.dim(),
                               codec.mins(), codec.scales(), ids.data(), kRows,
                               out.data());
        }));
  ANNSIM_CHECK(sink >= 0.0f);
}

void probe_quant_segment(const data::Dataset& rows, const data::Dataset& fresh,
                         const core::EngineConfig& cfg,
                         const data::Dataset& queries, Report& r) {
  segment::SegmentedParams sp;
  sp.hnsw = cfg.hnsw;
  sp.delta_capacity = cfg.segment_delta_capacity;
  sp.quantize_frozen = true;
  sp.float_cache_fraction = cfg.float_cache_fraction;
  segment::SegmentedIndex index(rows, sp);
  std::size_t sink = 0;
  auto search_all = [&](const float* q) {
    sink += index.search(q, kK, kEf).size();
  };

  const auto before = index.stats();
  r.set("quant.search_us", us_per_query(queries, 3, search_all));
  const auto after = index.stats();
  r.set("quant.bytes_per_row",
        double(after.quant_resident_bytes) / double(after.quant_rows));
  const double exact = double(after.rerank_exact - before.rerank_exact);
  const double coded = double(after.rerank_coded - before.rerank_coded);
  r.set("quant.rerank_exact_share", exact / (exact + coded));

  // Half-fill the delta, tombstone a few frozen rows, search both tiers.
  const std::size_t n_insert =
      std::min(fresh.size(), cfg.segment_delta_capacity / 2);
  const GlobalId first_fresh = GlobalId(1) << 40;  // clear of every row id
  r.set("segment.insert_us", mean_us(n_insert, [&](std::size_t i) {
          index.insert(fresh.row_span(i), first_fresh + i);
        }));
  constexpr std::size_t kErase = 32;
  const std::size_t step = std::max<std::size_t>(1, rows.size() / kErase);
  r.set("segment.erase_us", mean_us(kErase, [&](std::size_t i) {
          ANNSIM_CHECK(index.erase(rows.id(i * step)));
        }));
  r.set("segment.search_us.delta", us_per_query(queries, 3, search_all));

  auto t0 = Clock::now();
  ANNSIM_CHECK(index.compact());  // minor: freezes the delta's live rows
  r.set("segment.compact_minor_ms", ms_since(t0));
  // Re-inserting an erased id forces the major merge that purges its
  // frozen copy (and every other tombstoned row).
  t0 = Clock::now();
  index.insert(rows.row_span(0), rows.id(0));
  r.set("segment.compact_major_ms", ms_since(t0));
  const auto merged = index.stats();
  ANNSIM_CHECK(merged.n_segments == 1 && merged.tombstones == 0);
  ANNSIM_CHECK(sink > 0);
}

void probe_recovery(const std::string& dir, const data::Dataset& rows,
                    Report& r) {
  recovery::WriteLog log(dir);
  std::vector<double> ms;
  std::uint64_t lsn = 1;
  const auto t_end = Clock::now() + std::chrono::seconds(1);
  while (ms.size() < 100 || (ms.size() < 2000 && Clock::now() < t_end)) {
    const auto t0 = Clock::now();
    for (int f = 0; f < 8; ++f, ++lsn) {
      log.append_insert(lsn, PartitionId(0), GlobalId(lsn),
                        rows.row_span(lsn % rows.size()));
    }
    ANNSIM_CHECK_MSG(log.commit(), "write-ahead log commit failed");
    ms.push_back(ms_since(t0));
  }
  r.set("recovery.commit_ms.p50", percentile(ms, 0.50));
  r.set("recovery.commit_ms.p99", percentile(ms, 0.99));
  std::printf("recovery: %zu group commits of 8 frames, %zu beyond p99\n",
              ms.size(), ms.size() / 100);
}

}  // namespace perfbench
