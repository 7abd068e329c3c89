/// Overload control in the QueryServer (DESIGN.md §4.11): config validation
/// with field-specific messages, deadline-aware admission (won't-make-it
/// culls, immediate dispatch, priority eviction), the expired_in_queue vs
/// completed_late metric split, brownout engagement and recovery, and the
/// circuit breaker's trip / fast-fail / half-open-probe / close cycle
/// composed with auto_heal after a worker kill.

#include "annsim/serve/query_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/mpi/fault.hpp"
#include "annsim/serve/load_gen.hpp"
#include "cohort_hold.hpp"

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

/// One small built engine shared by the non-fault tests.
struct Shared {
  data::Workload w = data::make_sift_like(1500, 64, 777);
  core::DistributedAnnEngine engine{&w.base, engine_config()};
  Shared() { engine.build(); }
};

Shared& shared() {
  static Shared s;
  return s;
}

std::vector<float> qvec(const data::Dataset& ds, std::size_t i) {
  const float* p = ds.row(i % ds.size());
  return {p, p + ds.dim()};
}

/// The first `n` queries whose routing plan holds both partitions 0 and 1,
/// the two replicas worker 1 hosts under replication 2. The master hands
/// each partition's jobs round-robin over its two replicas, so over a run of
/// such queries the pointers of partitions 0 and 1 advance in lockstep and
/// every query sends worker 1 exactly one of its jobs: while worker 1 is dead
/// each of these queries waits out the result timeout before failing over,
/// whereas a query whose jobs avoid it is answered without it.
std::vector<std::size_t> queries_needing_worker1(
    const core::DistributedAnnEngine& engine, const data::Dataset& queries,
    std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < queries.size() && out.size() < n; ++i) {
    const auto parts = engine.router()
                           .route_topk(queries.row(i), engine.config().n_probe)
                           .partitions;
    auto holds = [&](PartitionId p) {
      return std::find(parts.begin(), parts.end(), p) != parts.end();
    };
    if (holds(0) && holds(1)) out.push_back(i);
  }
  return out;
}

TEST(ServerOverloadConfig, FieldSpecificValidationMessages) {
  auto& s = shared();
  auto expect_msg = [&](ServerConfig sc, const char* needle) {
    try {
      QueryServer server(&s.engine, sc);
      FAIL() << "expected validation to reject the config";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  { ServerConfig c; c.brownout_target_ms = -1.0;
    expect_msg(c, "brownout_target_ms cannot be negative"); }
  { ServerConfig c; c.brownout_target_ms = 1.0; c.brownout_floor = 0.0;
    expect_msg(c, "brownout_floor must be within (0, 1]"); }
  { ServerConfig c; c.brownout_floor = 1.5;
    expect_msg(c, "brownout_floor must be within (0, 1]"); }
  { ServerConfig c; c.breaker_threshold = 1.5;
    expect_msg(c, "breaker_threshold must be within [0, 1]"); }
  { ServerConfig c; c.breaker_threshold = -0.1;
    expect_msg(c, "breaker_threshold must be within [0, 1]"); }
  { ServerConfig c; c.breaker_threshold = 0.5; c.breaker_open_ms = -1.0;
    expect_msg(c, "breaker_open_ms cannot be negative"); }
  { ServerConfig c; c.breaker_threshold = 0.5; c.breaker_window = 0;
    expect_msg(c, "breaker_window must be nonzero"); }
  { ServerConfig c; c.breaker_threshold = 0.5; c.breaker_probes = 0;
    expect_msg(c, "breaker_probes must be nonzero"); }
}

TEST(ServerOverloadConfig, UnknownPriorityClassRejectedAtSubmit) {
  auto& s = shared();
  QueryServer server(&s.engine, ServerConfig{});
  try {
    (void)server.submit(qvec(s.w.queries, 0), 5, 0.0, PriorityClass(7));
    FAIL() << "expected submit to reject the class";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("priority class"), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ServerOverload, PriorityClassNamesRender) {
  EXPECT_STREQ(to_string(PriorityClass::kInteractive), "interactive");
  EXPECT_STREQ(to_string(PriorityClass::kBatch), "batch");
  EXPECT_STREQ(to_string(PriorityClass::kBestEffort), "best-effort");
  EXPECT_STREQ(to_string(QueryStatus::kShed), "shed");
}

TEST(ServerOverload, WontMakeItIsShedBeforeTouchingAWorker) {
  auto& s = shared();
  ServerConfig sc;
  sc.deadline_scheduling = true;
  sc.max_batch = 64;
  QueryServer server(&s.engine, sc);

  // Seed the service-time EWMAs with real answers: 64 queries, no deadline.
  // Each answer feeds them before its future resolves.
  {
    std::vector<std::future<QueryResponse>> warm;
    for (std::size_t i = 0; i < 64; ++i) {
      warm.push_back(server.submit(qvec(s.w.queries, i), 5));
    }
    for (auto& f : warm) EXPECT_EQ(f.get().status, QueryStatus::kOk);
  }

  // A search takes well over a microsecond, so a 0.001ms deadline is
  // provably unreachable: the estimator must shed at admission — empty
  // result, no worker time spent.
  auto fut = server.submit(qvec(s.w.queries, 0), 5, /*deadline_ms=*/0.001);
  const auto resp = fut.get();
  EXPECT_EQ(resp.status, QueryStatus::kShed);
  EXPECT_TRUE(resp.neighbors.empty());
  EXPECT_GE(server.metrics().shed, 1u);
}

TEST(ServerOverload, LoneDeadlineRequestDispatchesAtOnceEitherWay) {
  // No request waits for batch-mates, so a deadline tighter than
  // max_delay_ms is met with or without deadline scheduling.
  auto& s = shared();
  constexpr double kMaxDelayMs = 500.0;
  constexpr double kDeadlineMs = 150.0;
  for (const bool scheduling : {true, false}) {
    ServerConfig sc;
    sc.deadline_scheduling = scheduling;
    sc.max_batch = 2;
    sc.max_delay_ms = kMaxDelayMs;
    QueryServer server(&s.engine, sc);
    // Seed the service-time EWMAs, so the won't-make-it check is live.
    EXPECT_EQ(server.submit(qvec(s.w.queries, 0), 5).get().status,
              QueryStatus::kOk);
    const auto resp =
        server.submit(qvec(s.w.queries, 2), 5, kDeadlineMs).get();
    EXPECT_EQ(resp.status, QueryStatus::kOk) << "scheduling " << scheduling;
    EXPECT_LT(resp.queue_ms, 50.0) << "scheduling " << scheduling;
    EXPECT_LT(resp.total_ms, kDeadlineMs) << "scheduling " << scheduling;
  }
}

TEST(ServerOverload, FullQueueEvictsStrictlyLowerClassBottomUp) {
  auto& s = shared();
  ServerConfig sc;
  sc.deadline_scheduling = true;
  sc.max_batch = 64;
  sc.queue_capacity = 2;
  QueryServer server(&s.engine, sc);

  CohortHold hold(s.engine, s.w.queries);  // the queue cannot drain
  auto best = server.submit(qvec(s.w.queries, 0), 5, 0.0,
                            PriorityClass::kBestEffort);
  auto batch = server.submit(qvec(s.w.queries, 1), 5, 0.0,
                             PriorityClass::kBatch);
  // Queue full. An interactive arrival evicts the lowest class first.
  auto inter1 = server.submit(qvec(s.w.queries, 2), 5, 0.0,
                              PriorityClass::kInteractive);
  EXPECT_EQ(best.get().status, QueryStatus::kShed);
  // Full again. The next interactive arrival evicts the batch request.
  auto inter2 = server.submit(qvec(s.w.queries, 3), 5, 0.0,
                              PriorityClass::kInteractive);
  EXPECT_EQ(batch.get().status, QueryStatus::kShed);
  // Full of interactive: nothing strictly lower remains, so the arrival
  // falls back to the overflow policy instead of evicting a peer.
  auto inter3 = server.submit(qvec(s.w.queries, 4), 5, 0.0,
                              PriorityClass::kInteractive);
  EXPECT_EQ(inter3.get().status, QueryStatus::kRejected);

  hold.release();
  server.stop();  // drains the two admitted interactive requests
  EXPECT_EQ(inter1.get().status, QueryStatus::kOk);
  EXPECT_EQ(inter2.get().status, QueryStatus::kOk);
  const auto m = server.metrics();
  EXPECT_EQ(m.shed, 2u);
  EXPECT_EQ(m.rejected, 1u);
}

TEST(ServerOverload, ExpiredSplitsIntoInQueueAndCompletedLate) {
  auto& s = shared();
  // In-queue expiry: a request whose deadline fires while it is still
  // queued (held there until the deadline has passed).
  {
    ServerConfig sc;
    sc.max_batch = 64;
    QueryServer server(&s.engine, sc);
    CohortHold hold(s.engine, s.w.queries);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(5);
    auto fut = server.submit(qvec(s.w.queries, 0), 5, /*deadline_ms=*/5.0);
    std::this_thread::sleep_until(deadline);
    hold.release();
    const auto resp = fut.get();
    EXPECT_EQ(resp.status, QueryStatus::kDeadlineExpired);
    EXPECT_TRUE(resp.neighbors.empty());  // no worker ever touched it
    const auto m = server.metrics();
    EXPECT_EQ(m.expired_in_queue, 1u);
    EXPECT_EQ(m.completed_late, 0u);
    EXPECT_EQ(m.expired, 1u);
  }
  // Late completion: detect-mode engine with a killed worker. Every query
  // below needs that worker, so the first search after its op budget runs
  // out stalls on the 60ms result timeout: a 20ms deadline is met in the
  // queue (dispatch is immediate) but missed in flight.
  {
    auto cfg = engine_config();
    cfg.replication = 2;
    cfg.result_timeout_ms = 60.0;
    cfg.fault.seed = 5;
    cfg.fault.kills.push_back({/*global_rank=*/2, /*after_ops=*/2,
                               mpi::kNeverFires});
    data::Workload w = data::make_sift_like(1200, 48, 13);
    core::DistributedAnnEngine engine(&w.base, cfg);
    engine.build();

    ServerConfig sc;
    sc.max_batch = 1;
    QueryServer server(&engine, sc);
    bool saw_late_answer = false;
    const auto probing = queries_needing_worker1(engine, w.queries, 4);
    ASSERT_EQ(probing.size(), 4u);
    for (const std::size_t i : probing) {
      const float* p = w.queries.row(i);
      auto fut = server.submit({p, p + w.queries.dim()}, 5,
                               /*deadline_ms=*/20.0);
      const auto resp = fut.get();
      if (resp.status == QueryStatus::kDeadlineExpired &&
          !resp.neighbors.empty()) {
        saw_late_answer = true;  // partial service: the late answer shipped
      }
    }
    EXPECT_TRUE(saw_late_answer);
    const auto m = server.metrics();
    EXPECT_GE(m.completed_late, 1u);
    EXPECT_EQ(m.expired, m.expired_in_queue + m.completed_late);
    server.stop();
  }
}

TEST(ServerOverload, BrownoutEngagesUnderBurstAndRecoversWhenQuiet) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 8;
  sc.brownout_target_ms = 5.0;
  sc.brownout_floor = 0.25;
  QueryServer server(&s.engine, sc);

  // Burst far beyond the 8 slots, held in the queue past the target: every
  // dispatch round measures a queue delay above it, and pressure ratchets
  // up round by round, however fast the engine drains the burst.
  std::vector<std::future<QueryResponse>> burst;
  {
    CohortHold hold(s.engine, s.w.queries);
    const auto backlog_aged = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(10);
    for (std::size_t i = 0; i < 300; ++i) {
      burst.push_back(server.submit(qvec(s.w.queries, i), 5, 0.0,
                                    PriorityClass::kBestEffort));
    }
    std::this_thread::sleep_until(backlog_aged);
  }
  double best_effort_min = 1.0;
  for (auto& f : burst) {
    const auto resp = f.get();
    EXPECT_EQ(resp.status, QueryStatus::kOk);
    EXPECT_GE(resp.effort_factor, sc.brownout_floor - 1e-9);
    best_effort_min = std::min(best_effort_min, resp.effort_factor);
  }
  const auto mid = server.metrics();
  EXPECT_GT(mid.browned_out, 0u);
  EXPECT_LT(mid.brownout_min_factor, 1.0);
  EXPECT_LT(best_effort_min, 1.0);

  // Quiet period: serve lone requests one at a time. Each dispatches at
  // once, under half the target, so pressure decays 0.25 per dispatch round
  // and full effort returns within a handful of requests.
  double last_effort = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    auto fut = server.submit(qvec(s.w.queries, i), 5);
    last_effort = fut.get().effort_factor;
  }
  EXPECT_DOUBLE_EQ(last_effort, 1.0);
  EXPECT_DOUBLE_EQ(server.metrics().brownout_pressure, 0.0);
}

TEST(ServerOverload, InteractiveKeepsMoreEffortThanBestEffort) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 8;
  sc.brownout_target_ms = 5.0;
  QueryServer server(&s.engine, sc);

  // A mixed burst held in the queue past the target (see above).
  std::vector<std::future<QueryResponse>> inter, best;
  {
    CohortHold hold(s.engine, s.w.queries);
    const auto backlog_aged = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(10);
    for (std::size_t i = 0; i < 150; ++i) {
      inter.push_back(server.submit(qvec(s.w.queries, i), 5, 0.0,
                                    PriorityClass::kInteractive));
      best.push_back(server.submit(qvec(s.w.queries, i + 1), 5, 0.0,
                                   PriorityClass::kBestEffort));
    }
    std::this_thread::sleep_until(backlog_aged);
  }
  double inter_min = 1.0, best_min = 1.0;
  for (auto& f : inter) inter_min = std::min(inter_min, f.get().effort_factor);
  for (auto& f : best) best_min = std::min(best_min, f.get().effort_factor);
  // Bottom-up brownout: at any pressure the interactive factor is >= the
  // best-effort factor (best-effort's onset is 0, interactive's is 0.75).
  EXPECT_GE(inter_min, best_min);
  EXPECT_LT(best_min, 1.0);  // the burst did push best-effort below full
}

/// Breaker + auto_heal composition needs an engine whose searches go slow
/// deterministically: detect-mode with a killed worker stalls every query
/// that probes it on the result timeout until heal() revives it.
TEST(ServerOverloadBreaker, TripsFastFailsThenRecoversThroughProbes) {
  auto cfg = engine_config();
  cfg.replication = 2;               // survivors hold every partition
  cfg.result_timeout_ms = 60.0;      // detect mode: dead worker = slow query
  cfg.fault.seed = 7;
  // Dead from the first dispatched query on, so no job it is sent lands.
  cfg.fault.kills.push_back({/*global_rank=*/2, mpi::kNeverFires,
                             /*at_step=*/1});
  data::Workload w = data::make_sift_like(1200, 48, 31);
  core::DistributedAnnEngine engine(&w.base, cfg);
  engine.build();

  ServerConfig sc;
  sc.max_batch = 4;
  sc.auto_heal = true;               // heal between streams after the kill
  sc.breaker_threshold = 0.5;
  sc.breaker_window = 4;
  sc.breaker_open_ms = 30.0;
  sc.breaker_probes = 2;
  QueryServer server(&engine, sc);
  auto q = [&](std::size_t i) {
    const float* p = w.queries.row(i % w.queries.size());
    return std::vector<float>(p, p + w.queries.dim());
  };

  // Phase 1 — trip: 4 tight-deadline requests in flight, each needing the
  // killed worker. The kill fires under it, every query stalls on the 60ms
  // result timeout, and all four complete late: 4 failures in a window of
  // 4 >= threshold 0.5.
  {
    const auto probing = queries_needing_worker1(engine, w.queries, 4);
    ASSERT_EQ(probing.size(), 4u);
    std::vector<std::future<QueryResponse>> fs;
    for (const std::size_t i : probing) {
      fs.push_back(server.submit(q(i), 5, /*deadline_ms=*/5.0));
    }
    for (auto& f : fs) {
      EXPECT_EQ(f.get().status, QueryStatus::kDeadlineExpired);
    }
  }
  ASSERT_GE(server.metrics().breaker_trips, 1u);

  // Phase 2 — fast-fail: while open, admissions shed without queueing.
  {
    auto f = server.submit(q(5), 5, /*deadline_ms=*/5.0);
    EXPECT_EQ(f.get().status, QueryStatus::kShed);
    EXPECT_GE(server.metrics().breaker_rejections, 1u);
  }

  // Phase 3 — recover: auto_heal revived the worker once the stream ended,
  // so once the open period lapses, half-open probes (no deadline = cannot
  // fail) succeed and close the breaker; service is normal again.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  for (std::size_t i = 0; i < sc.breaker_probes; ++i) {
    auto f = server.submit(q(6 + i), 5);
    EXPECT_EQ(f.get().status, QueryStatus::kOk);
  }
  auto f = server.submit(q(9), 5);
  EXPECT_EQ(f.get().status, QueryStatus::kOk);
  const auto m = server.metrics();
  EXPECT_GE(m.heals, 1u);            // the breaker composed with auto_heal
  EXPECT_GE(m.completed_late, 4u);
  server.stop();
}

TEST(ServerOverload, MixedClassLoadGenTalliesPerClass) {
  auto& s = shared();
  ServerConfig sc;
  sc.max_batch = 16;
  QueryServer server(&s.engine, sc);

  LoadGenConfig lg;
  lg.open_loop = false;
  lg.n_clients = 3;
  lg.n_requests = 120;
  lg.k = 5;
  lg.class_mix = {0.5, 0.3, 0.2};
  const auto rep = run_load(server, s.w.queries, lg);

  std::size_t sent = 0;
  for (const auto& ct : rep.by_class) sent += ct.sent;
  EXPECT_EQ(sent, lg.n_requests);
  EXPECT_EQ(rep.ok, lg.n_requests);  // unloaded: everything answered
  // With 120 draws at 50/30/20 every class sees traffic.
  for (const auto& ct : rep.by_class) {
    EXPECT_GT(ct.sent, 0u);
    EXPECT_EQ(ct.ok, ct.sent);
    EXPECT_DOUBLE_EQ(ct.hit_rate, 1.0);
    EXPECT_GT(ct.p999_ms, 0.0);
  }
}

TEST(ServerOverload, LoadGenRejectsBadClassMix) {
  auto& s = shared();
  QueryServer server(&s.engine, ServerConfig{});
  LoadGenConfig lg;
  lg.n_requests = 1;
  lg.class_mix = {-0.5, 1.0, 0.5};
  try {
    (void)run_load(server, s.w.queries, lg);
    FAIL() << "expected the mix to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("class_mix"), std::string::npos)
        << "message was: " << e.what();
  }
}

}  // namespace
}  // namespace annsim::serve
