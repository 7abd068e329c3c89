/// Serving-plane benchmark: open-loop Poisson load against a built engine.
///
/// Not a paper figure — this measures the artifact the ROADMAP's production
/// north star needs: how the number of queries in flight (max_batch, the
/// query stream's slots) trades tail latency against throughput when
/// requests arrive over time instead of as one offline batch, where the
/// saturation point sits, and what load shedding + deadlines do at overload.

#include <algorithm>
#include <cstdio>

#include "annsim/core/engine.hpp"
#include "annsim/serve/load_gen.hpp"
#include "bench_common.hpp"

using namespace annsim;

namespace {

serve::LoadGenReport run_once(core::DistributedAnnEngine& engine,
                              const data::Dataset& queries,
                              serve::ServerConfig sc, serve::LoadGenConfig lg) {
  serve::QueryServer server(&engine, sc);
  auto rep = serve::run_load(server, queries, lg);
  server.stop();
  return rep;
}

std::size_t requests_for(double qps, double target_seconds) {
  const double n = qps * target_seconds * bench::scale_factor();
  return std::clamp<std::size_t>(std::size_t(n), 200, 4000);
}

}  // namespace

int main() {
  bench::print_header(
      "Serving: a query stream under open-loop Poisson load");

  auto w = data::make_sift_like(bench::scaled(20000), 512, 42);

  core::EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 12;
  cfg.hnsw.ef_construction = 100;
  core::DistributedAnnEngine engine(&w.base, cfg);
  engine.build();
  std::printf("engine: %zu x %zu-d, %zu workers, built in %.2fs\n",
              w.base.size(), w.base.dim(), cfg.n_workers,
              engine.build_stats().total_seconds);

  // --- 1. slots sweep at fixed offered load --------------------------------
  const double kSweepQps = 1500.0;
  std::printf("\n[1] slots in flight @ %.0f q/s offered, k=10\n", kSweepQps);
  std::printf("%9s | %9s %8s %8s %8s %8s | %10s %8s\n", "max_batch",
              "thpt q/s", "p50 ms", "p95 ms", "p99 ms", "p999 ms",
              "in flight", "rejected");
  for (std::size_t mb : {std::size_t(1), std::size_t(8), std::size_t(32)}) {
    serve::ServerConfig sc;
    sc.max_batch = mb;
    sc.queue_capacity = 512;
    serve::LoadGenConfig lg;
    lg.qps = kSweepQps;
    lg.n_requests = requests_for(kSweepQps, 1.0);
    lg.k = 10;
    lg.seed = 7;
    const auto rep = run_once(engine, w.queries, sc, lg);
    const auto& m = rep.metrics;
    std::printf("%9zu | %9.0f %8.3f %8.3f %8.3f %8.3f | %10.1f %8zu\n", mb,
                m.throughput_qps, m.latency_p50_ms, m.latency_p95_ms,
                m.latency_p99_ms, m.latency_p999_ms, m.batch_size.mean,
                m.rejected);
  }

  // --- 2. load sweep at fixed policy: saturation + rejection onset ----------
  std::printf("\n[2] load sweep (max_batch=32, queue=64, "
              "reject on overflow)\n");
  std::printf("%11s | %9s %8s %8s %8s | %10s %8s %8s\n", "offered q/s",
              "thpt q/s", "p50 ms", "p95 ms", "p99 ms", "in flight",
              "rejected", "depth max");
  for (double qps : {250.0, 1000.0, 4000.0, 16000.0}) {
    serve::ServerConfig sc;
    sc.max_batch = 32;
    sc.queue_capacity = 64;
    serve::LoadGenConfig lg;
    lg.qps = qps;
    lg.n_requests = requests_for(qps, 0.75);
    lg.k = 10;
    lg.seed = 13;
    const auto rep = run_once(engine, w.queries, sc, lg);
    const auto& m = rep.metrics;
    std::printf("%11.0f | %9.0f %8.3f %8.3f %8.3f | %10.1f %8zu %8.0f\n", qps,
                m.throughput_qps, m.latency_p50_ms, m.latency_p95_ms,
                m.latency_p99_ms, m.batch_size.mean, m.rejected,
                m.queue_depth.max);
  }

  // --- 3. deadlines at overload: timeouts instead of unbounded queueing -----
  std::printf("\n[3] per-request deadline under overload (deadline=25ms, "
              "8000 q/s offered)\n");
  {
    serve::ServerConfig sc;
    sc.max_batch = 32;
    sc.queue_capacity = 512;
    serve::LoadGenConfig lg;
    lg.qps = 8000.0;
    lg.n_requests = requests_for(8000.0, 0.5);
    lg.k = 10;
    lg.deadline_ms = 25.0;
    lg.seed = 19;
    const auto rep = run_once(engine, w.queries, sc, lg);
    std::printf("client: %zu ok, %zu expired, %zu rejected, %zu failed "
                "(every request completed)\n",
                rep.ok, rep.expired, rep.rejected, rep.failed);
    std::printf("%s\n", serve::to_string(rep.metrics).c_str());
  }

  return 0;
}
