/// Degraded answers crossing the serving plane: a query the engine completes
/// with partial coverage surfaces as kDegraded (with its coverage numbers),
/// unless the server's retry budget buys another attempt first. Faults here
/// are injected through the engine config, so every stream the server runs
/// sees the same deterministic worker death.

#include "annsim/serve/query_server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::serve {
namespace {

core::EngineConfig engine_config() {
  core::EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  return cfg;
}

core::EngineConfig faulty_config() {
  auto cfg = engine_config();
  cfg.result_timeout_ms = 50.0;
  // Worker 1 (runtime rank 2) is dead on arrival in every stream the server
  // runs: with replication = 1 its partition is simply gone.
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/0, mpi::kNeverFires});
  return cfg;
}

std::vector<float> qvec(const data::Dataset& ds, std::size_t i) {
  const float* p = ds.row(i);
  return {p, p + ds.dim()};
}

TEST(ServerDegraded, PartialCoverageSurfacesAsDegradedStatus) {
  auto w = data::make_sift_like(800, 24, 701);

  // Fault-free reference for the queries that keep full coverage.
  core::DistributedAnnEngine clean(&w.base, engine_config());
  clean.build();
  auto reference = clean.search(w.queries, 5);

  core::DistributedAnnEngine eng(&w.base, faulty_config());
  eng.build();
  ServerConfig sc;
  sc.max_batch = 8;
  QueryServer server(&eng, sc);  // max_retries = 0: surface immediately

  std::vector<std::future<QueryResponse>> futs;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    futs.push_back(server.submit(qvec(w.queries, i), 5));
  }
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    auto r = futs[i].get();
    if (r.status == QueryStatus::kDegraded) {
      ++degraded;
      EXPECT_LT(r.partitions_searched, r.partitions_planned);
      EXPECT_GT(r.partitions_searched, 0u);  // live partitions still answered
      EXPECT_FALSE(r.neighbors.empty());
    } else {
      ASSERT_EQ(r.status, QueryStatus::kOk) << to_string(r.status);
      EXPECT_EQ(r.partitions_searched, r.partitions_planned);
      EXPECT_EQ(r.neighbors, reference[i]) << "query " << i;
    }
  }
  // n_probe = 2 of 4 partitions: the dead worker's partition sits in some
  // plans but not all (both routing and the kill are deterministic).
  EXPECT_GT(degraded, 0u);
  EXPECT_LT(degraded, futs.size());

  server.stop();
  const auto m = server.metrics();
  EXPECT_EQ(m.degraded, degraded);
  EXPECT_EQ(m.completed_ok, futs.size() - degraded);
  EXPECT_EQ(m.retries, 0u);
}

TEST(ServerDegraded, RetryBudgetSpendsThenSurfaces) {
  auto w = data::make_sift_like(800, 16, 702);
  core::DistributedAnnEngine eng(&w.base, faulty_config());
  eng.build();

  ServerConfig sc;
  sc.max_batch = 8;
  sc.max_retries = 2;
  sc.retry_backoff_ms = 1.0;
  QueryServer server(&eng, sc);

  std::vector<std::future<QueryResponse>> futs;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    futs.push_back(server.submit(qvec(w.queries, i), 5));
  }
  std::size_t degraded = 0;
  for (auto& f : futs) {
    auto r = f.get();  // every future completes despite the retry loop
    if (r.status == QueryStatus::kDegraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);

  server.stop();
  const auto m = server.metrics();
  // The worker is dead in every stream, so each degraded query burned its
  // whole budget before the server gave up on it.
  EXPECT_EQ(m.degraded, degraded);
  EXPECT_EQ(m.retries, 2 * degraded);
}

TEST(ServerDegraded, RetryRespectsRequestDeadline) {
  auto w = data::make_sift_like(800, 8, 703);
  core::DistributedAnnEngine eng(&w.base, faulty_config());
  eng.build();

  ServerConfig sc;
  sc.max_batch = 8;
  sc.max_retries = 5;
  sc.retry_backoff_ms = 60'000.0;  // a retry could never beat any deadline
  QueryServer server(&eng, sc);

  std::vector<std::future<QueryResponse>> futs;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    futs.push_back(server.submit(qvec(w.queries, i), 5, /*deadline_ms=*/5000));
  }
  for (auto& f : futs) {
    auto r = f.get();
    // Backoff past the deadline disqualifies the retry: degraded answers
    // surface at once rather than being parked until they expire.
    EXPECT_TRUE(r.status == QueryStatus::kOk ||
                r.status == QueryStatus::kDegraded)
        << to_string(r.status);
  }
  server.stop();
  EXPECT_EQ(server.metrics().retries, 0u);
}

TEST(ServerDegraded, RetryForfeitedWhenAdmissionQueueIsFull) {
  // A degraded retry re-enters through the same bounded admission queue as
  // any submit: when the queue is full the retry is forfeit and the degraded
  // partial answer goes out, instead of overflowing queue_capacity.
  auto w = data::make_sift_like(800, 4, 704);
  auto cfg = engine_config();
  cfg.result_timeout_ms = 50.0;
  // Every worker is dead on arrival, so every query degrades (and the first
  // stream takes at least the detection timeout to declare the deaths).
  for (int rank = 1; rank <= 4; ++rank) {
    cfg.fault.kills.push_back({rank, /*after_ops=*/0, mpi::kNeverFires});
  }
  core::DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  ServerConfig sc;
  sc.max_batch = 1;
  sc.queue_capacity = 1;
  sc.max_retries = 1;
  sc.retry_backoff_ms = 1.0;
  QueryServer server(&eng, sc);

  // q0 dispatches immediately (the queue drains to zero); while it holds the
  // one slot, stuck in the engine for the 50ms detection timeout, q1 is
  // admitted and fills the queue to capacity.
  auto f0 = server.submit(qvec(w.queries, 0), 5);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto f1 = server.submit(qvec(w.queries, 1), 5);

  // q0's retry finds the queue full and is forfeited; q1 retries once into an
  // empty queue, degrades again, and surfaces after spending its budget.
  auto r0 = f0.get();
  auto r1 = f1.get();
  EXPECT_EQ(r0.status, QueryStatus::kDegraded) << to_string(r0.status);
  EXPECT_EQ(r1.status, QueryStatus::kDegraded) << to_string(r1.status);

  server.stop();
  const auto m = server.metrics();
  EXPECT_EQ(m.degraded, 2u);
  EXPECT_EQ(m.retries, 1u);  // only q1's retry was admitted
}

TEST(ServerDegraded, AutoHealRestoresCoverageBetweenStreams) {
  // Self-healing across the serving plane: the first wave loses a worker and
  // degrades (replication = 1, nothing to fail over to); auto_heal repairs
  // the cluster from its checkpoints once the stream that saw the death
  // ends, so a second wave answers clean.
  auto w = data::make_sift_like(800, 24, 705);
  const std::string ckpt =
      (std::filesystem::temp_directory_path() /
       ("annsim_serve_heal_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(ckpt);

  core::DistributedAnnEngine clean(&w.base, engine_config());
  clean.build();
  auto reference = clean.search(w.queries, 5);

  auto cfg = faulty_config();
  cfg.checkpoint_dir = ckpt;
  core::DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  ServerConfig sc;
  sc.max_batch = 24;  // the whole first wave fits in flight
  sc.auto_heal = true;
  QueryServer server(&eng, sc);

  std::vector<std::future<QueryResponse>> wave1;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    wave1.push_back(server.submit(qvec(w.queries, i), 5));
  }
  std::size_t degraded = 0;
  for (auto& f : wave1) {
    if (f.get().status == QueryStatus::kDegraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);  // the death was felt...

  // ...and the stream that declared it stopped admitting, so every wave-2
  // request waits for the next stream, which opens after the heal. The
  // second wave must see a fully repaired cluster.
  std::vector<std::future<QueryResponse>> wave2;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    wave2.push_back(server.submit(qvec(w.queries, i), 5));
  }
  for (std::size_t i = 0; i < wave2.size(); ++i) {
    auto r = wave2[i].get();
    ASSERT_EQ(r.status, QueryStatus::kOk) << to_string(r.status);
    EXPECT_EQ(r.partitions_searched, r.partitions_planned);
    EXPECT_EQ(r.neighbors, reference[i]) << "query " << i;
  }

  server.stop();
  const auto m = server.metrics();
  EXPECT_GE(m.heals, 1u);
  EXPECT_GE(m.workers_revived, 1u);
  EXPECT_GE(m.coverage_restored, 1u);
  EXPECT_EQ(m.under_replicated_partitions, 0u);
  const std::string rendered = to_string(m);
  EXPECT_NE(rendered.find("healing:"), std::string::npos) << rendered;
  std::filesystem::remove_all(ckpt);
}

TEST(ServerDegraded, MetricsRenderingShowsDegradedAndRetries) {
  ServerMetrics m;
  m.on_submit(1);
  m.on_complete_degraded(/*latency_ms=*/3.0, /*queue_wait_ms=*/1.0);
  m.on_retry();
  m.on_retry();
  const std::string s = to_string(m.report());
  EXPECT_NE(s.find("1 degraded"), std::string::npos) << s;
  EXPECT_NE(s.find("(2 retries)"), std::string::npos) << s;
  // Degraded completions feed the shared latency histogram.
  EXPECT_GT(m.report().latency_mean_ms, 0.0);
}

}  // namespace
}  // namespace annsim::serve
