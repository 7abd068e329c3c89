/// QueryServer behaviour: immediate dispatch into the query stream (no batch
/// wait, whatever max_delay_ms says), per-request deadlines, admission-queue
/// backpressure (reject vs block), graceful shutdown, and exactly-once
/// completion under concurrent clients whose answers must match the offline
/// engine.search of the same queries.

#include "annsim/serve/query_server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "annsim/common/timer.hpp"
#include "cohort_hold.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/serve/load_gen.hpp"

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

/// One small built engine shared by every test — building dominates runtime.
struct Shared {
  data::Workload w = data::make_sift_like(1500, 64, 321);
  core::DistributedAnnEngine engine{&w.base, engine_config()};
  data::KnnResults reference;  ///< offline engine.search of all queries, k=5

  Shared() {
    engine.build();
    reference = engine.search(w.queries, 5);
  }
};

Shared& shared() {
  static Shared s;
  return s;
}

std::vector<float> qvec(const data::Dataset& ds, std::size_t i) {
  const float* p = ds.row(i);
  return {p, p + ds.dim()};
}

TEST(QueryServer, LoneRequestDispatchesAtOnceWhateverMaxDelay) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 64;        // slots to spare
  QueryServer server(&s.engine, sc);

  WallTimer t;
  auto fut = server.submit(qvec(s.w.queries, 0), 5);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  const QueryResponse resp = fut.get();
  EXPECT_EQ(resp.status, QueryStatus::kOk);
  EXPECT_EQ(resp.batch_size, 1u);  // alone in flight
  EXPECT_EQ(resp.neighbors, s.reference[0]);
  // Dispatched as it arrived, far inside the 500ms a batch wait would take.
  EXPECT_LT(resp.queue_ms, 50.0);
  EXPECT_LT(t.seconds(), 0.5);
}

TEST(QueryServer, DeadlineExpiryReturnsTimeoutStatusPromptly) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 64;
  QueryServer server(&s.engine, sc);

  // The hold keeps the request queued until its deadline has passed; the
  // first dispatch round then expires it instead of searching it.
  CohortHold hold(s.engine, s.w.queries);
  WallTimer t;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(5);
  auto fut = server.submit(qvec(s.w.queries, 1), 5, /*deadline_ms=*/5.0);
  std::this_thread::sleep_until(deadline);
  hold.release();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  const QueryResponse resp = fut.get();
  EXPECT_EQ(resp.status, QueryStatus::kDeadlineExpired);
  EXPECT_TRUE(resp.neighbors.empty());  // no worker ever touched it
  EXPECT_GE(resp.total_ms, 5.0);
  EXPECT_LT(t.seconds(), 1.0);
  const auto m = server.metrics();
  EXPECT_EQ(m.expired, 1u);
  EXPECT_EQ(m.expired_in_queue, 1u);
}

TEST(QueryServer, RejectPolicyBouncesWhenQueueFull) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 128;
  sc.queue_capacity = 2;
  sc.overflow = OverflowPolicy::kReject;
  QueryServer server(&s.engine, sc);

  CohortHold hold(s.engine, s.w.queries);  // the queue cannot drain
  auto f1 = server.submit(qvec(s.w.queries, 0), 5);
  auto f2 = server.submit(qvec(s.w.queries, 1), 5);
  auto f3 = server.submit(qvec(s.w.queries, 2), 5);
  // The third bounced immediately; its future is already ready.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status, QueryStatus::kRejected);

  hold.release();
  server.stop();  // drains the two admitted requests
  EXPECT_EQ(f1.get().status, QueryStatus::kOk);
  EXPECT_EQ(f2.get().status, QueryStatus::kOk);
  const auto m = server.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed_ok, 2u);
}

TEST(QueryServer, BlockPolicyBackpressuresInsteadOfRejecting) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 4;
  sc.queue_capacity = 1;
  sc.overflow = OverflowPolicy::kBlock;
  QueryServer server(&s.engine, sc);

  std::vector<std::future<QueryResponse>> futs;
  for (std::size_t i = 0; i < 6; ++i) {
    futs.push_back(server.submit(qvec(s.w.queries, i), 5));
  }
  for (auto& f : futs) EXPECT_EQ(f.get().status, QueryStatus::kOk);
  EXPECT_EQ(server.metrics().rejected, 0u);
  EXPECT_EQ(server.metrics().completed_ok, 6u);
}

TEST(QueryServer, ConcurrentClientsCompleteExactlyOnceAndMatchOfflineSearch) {
  auto& s = shared();
  const std::size_t kClients = 4, kPerClient = 40;
  const std::size_t nq = s.w.queries.size();

  ServerConfig sc;
  sc.max_batch = 16;
  sc.queue_capacity = 64;
  sc.overflow = OverflowPolicy::kBlock;  // no shedding: every request answers
  QueryServer server(&s.engine, sc);

  std::vector<std::vector<std::pair<std::size_t, std::future<QueryResponse>>>>
      per_client(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t row = (c * kPerClient + i) % nq;
        per_client[c].emplace_back(row,
                                   server.submit(qvec(s.w.queries, row), 5));
      }
    });
  }
  for (auto& t : clients) t.join();

  std::size_t completions = 0;
  for (auto& futs : per_client) {
    for (auto& [row, fut] : futs) {
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      const QueryResponse resp = fut.get();
      ++completions;
      EXPECT_EQ(resp.status, QueryStatus::kOk);
      // Batching must not change answers: identical to the offline batch
      // search of the same query against the same engine.
      EXPECT_EQ(resp.neighbors, s.reference[row]) << "query row " << row;
      EXPECT_GE(resp.batch_size, 1u);
      EXPECT_LE(resp.batch_size, sc.max_batch);
    }
  }
  EXPECT_EQ(completions, kClients * kPerClient);
  const auto m = server.metrics();
  EXPECT_EQ(m.submitted, kClients * kPerClient);
  EXPECT_EQ(m.completed_ok, kClients * kPerClient);
  EXPECT_EQ(m.rejected + m.expired + m.failed, 0u);
}

TEST(QueryServer, SubmitAfterStopCompletesAsShutdown) {
  auto& s = shared();
  QueryServer server(&s.engine, ServerConfig{});
  server.stop();
  auto fut = server.submit(qvec(s.w.queries, 0), 5);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(fut.get().status, QueryStatus::kShutdown);
  server.stop();  // idempotent
}

TEST(QueryServer, RejectsBadConfigAndBadRequests) {
  auto& s = shared();
  {
    ServerConfig sc;
    sc.max_batch = 0;
    EXPECT_THROW(QueryServer(&s.engine, sc), Error);
  }
  {
    ServerConfig sc;
    sc.queue_capacity = 0;
    EXPECT_THROW(QueryServer(&s.engine, sc), Error);
  }
  {
    ServerConfig sc;
    sc.max_delay_ms = -1.0;
    EXPECT_THROW(QueryServer(&s.engine, sc), Error);
  }
  {
    data::Workload w2 = data::make_sift_like(64, 2, 5);
    core::DistributedAnnEngine unbuilt(&w2.base, engine_config());
    EXPECT_THROW(QueryServer(&unbuilt, ServerConfig{}), Error);
  }
  QueryServer server(&s.engine, ServerConfig{});
  EXPECT_THROW((void)server.submit(std::vector<float>(3, 0.f), 5), Error);
  EXPECT_THROW((void)server.submit(qvec(s.w.queries, 0), 0), Error);
}

TEST(LoadGen, OpenLoopPoissonAccountsForEveryRequest) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 16;
  QueryServer server(&s.engine, sc);

  LoadGenConfig lg;
  lg.open_loop = true;
  lg.qps = 3000.0;
  lg.n_requests = 150;
  lg.k = 5;
  lg.seed = 3;
  const LoadGenReport rep = run_load(server, s.w.queries, lg);
  EXPECT_EQ(rep.ok + rep.rejected + rep.expired + rep.failed, lg.n_requests);
  EXPECT_GT(rep.ok, 0u);
  EXPECT_GT(rep.wall_seconds, 0.0);
  EXPECT_EQ(rep.metrics.submitted, rep.ok + rep.expired);
  EXPECT_GE(rep.metrics.batches, 1u);
}

TEST(LoadGen, ClosedLoopDrivesAllClients) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 8;
  QueryServer server(&s.engine, sc);

  LoadGenConfig lg;
  lg.open_loop = false;
  lg.n_clients = 3;
  lg.n_requests = 60;
  lg.k = 5;
  const LoadGenReport rep = run_load(server, s.w.queries, lg);
  EXPECT_EQ(rep.ok, 60u);
  EXPECT_EQ(rep.metrics.completed_ok, 60u);
  // Closed loop with 3 clients can never queue more than 3 at once.
  EXPECT_LE(rep.metrics.queue_depth.max, 3.0);
}

}  // namespace
}  // namespace annsim::serve
