/// ServerMetrics: counter accounting, report derivation (throughput, tail
/// quantiles, distributions), thread-safety of concurrent recording, and the
/// human-readable rendering used by bench_serving / the serve-bench CLI.

#include "annsim/serve/server_metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "annsim/common/rng.hpp"

namespace {

// Heap allocations made by a thread while it counts them (see
// DistributionsHoldConstantMemory).
thread_local bool t_count_allocations = false;
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (t_count_allocations) g_allocations.fetch_add(1);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace annsim::serve {
namespace {

TEST(ServerMetrics, EmptyReportIsAllZeros) {
  ServerMetrics m;
  const MetricsReport r = m.report();
  EXPECT_EQ(r.submitted, 0u);
  EXPECT_EQ(r.completed_ok, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.expired, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.batches, 0u);
  EXPECT_DOUBLE_EQ(r.throughput_qps, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_p999_ms, 0.0);
}

TEST(ServerMetrics, CountersAndDistributionsAddUp) {
  ServerMetrics m;
  for (std::size_t i = 0; i < 10; ++i) m.on_submit(/*depth=*/i + 1);
  m.on_reject();
  m.on_reject();
  m.on_expire_in_queue();
  m.on_fail();
  m.on_batch(4);
  m.on_batch(6);
  for (int i = 0; i < 8; ++i) {
    m.on_complete_ok(/*latency_ms=*/1.0 + i, /*queue_wait_ms=*/0.5);
  }

  const MetricsReport r = m.report();
  EXPECT_EQ(r.submitted, 10u);
  EXPECT_EQ(r.rejected, 2u);
  EXPECT_EQ(r.expired, 1u);
  EXPECT_EQ(r.expired_in_queue, 1u);
  EXPECT_EQ(r.completed_late, 0u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.batches, 2u);
  EXPECT_EQ(r.completed_ok, 8u);

  EXPECT_NEAR(r.latency_mean_ms, 4.5, 1e-9);  // mean of 1..8
  EXPECT_NEAR(r.latency_max_ms, 8.0, 1e-9);
  EXPECT_NEAR(r.queue_wait_mean_ms, 0.5, 1e-9);
  // Tail quantiles are monotone and bracketed by the observed range.
  EXPECT_GE(r.latency_p50_ms, 1.0);
  EXPECT_LE(r.latency_p50_ms, r.latency_p95_ms);
  EXPECT_LE(r.latency_p95_ms, r.latency_p99_ms);
  EXPECT_LE(r.latency_p99_ms, r.latency_p999_ms);
  EXPECT_LE(r.latency_p999_ms, r.latency_max_ms + 1e-9);

  EXPECT_NEAR(r.batch_size.mean, 5.0, 1e-9);
  EXPECT_NEAR(r.batch_size.max, 6.0, 1e-9);
  EXPECT_NEAR(r.queue_depth.max, 10.0, 1e-9);
  EXPECT_NEAR(r.queue_depth.min, 1.0, 1e-9);

  EXPECT_GE(r.wall_seconds, 0.0);
  if (r.wall_seconds > 0.0) {
    EXPECT_NEAR(r.throughput_qps, 8.0 / r.wall_seconds, 1e-6);
  }
}

void expect_same_summary(const Summary& got, const Summary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.p25, want.p25);
  EXPECT_EQ(got.median, want.median);
  EXPECT_EQ(got.p75, want.p75);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.mean, want.mean);
}

TEST(ServerMetrics, DistributionsEqualSummarizeOverTheSameSequence) {
  // Exactly, not approximately: the report keeps one count per value.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 5000u}) {
    ServerMetrics m;
    std::vector<double> depths, sizes;
    Rng rng(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t depth = rng.uniform_below(257);
      const std::size_t size = 1 + rng.uniform_below(64);
      m.on_submit(depth);
      m.on_batch(size);
      depths.push_back(double(depth));
      sizes.push_back(double(size));
    }
    const MetricsReport r = m.report();
    SCOPED_TRACE(n);
    expect_same_summary(r.queue_depth, summarize(depths));
    expect_same_summary(r.batch_size, summarize(sizes));
  }
}

TEST(ServerMetrics, DistributionsHoldConstantMemory) {
  // Once every value has been seen, a million more records allocate nothing.
  ServerMetrics m;
  for (std::size_t v = 0; v < 256; ++v) {
    m.on_submit(v);
    m.on_batch(v % 64 + 1);
  }
  // The counter sees a growing vector (the old one-entry-per-record store).
  g_allocations = 0;
  t_count_allocations = true;
  std::vector<double> grown;
  for (int i = 0; i < 100; ++i) grown.push_back(i);
  t_count_allocations = false;
  ASSERT_GT(g_allocations.load(), 0u) << "allocation counting is not active";
  ASSERT_EQ(grown.size(), 100u);

  g_allocations = 0;
  t_count_allocations = true;
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    m.on_submit(i % 256);
    m.on_batch(i % 64 + 1);
  }
  t_count_allocations = false;
  EXPECT_EQ(g_allocations.load(), 0u);
  const MetricsReport r = m.report();
  EXPECT_EQ(r.queue_depth.count, 1'000'256u);
  EXPECT_EQ(r.batch_size.count, 1'000'256u);
  EXPECT_EQ(r.queue_depth.max, 255.0);
}

TEST(ServerMetrics, ExpiredSplitsIntoQueueAndLateButSumsForBackCompat) {
  ServerMetrics m;
  m.on_expire_in_queue();
  m.on_expire_in_queue();
  m.on_complete_late();
  const MetricsReport r = m.report();
  EXPECT_EQ(r.expired_in_queue, 2u);
  EXPECT_EQ(r.completed_late, 1u);
  EXPECT_EQ(r.expired, 3u);  // pre-split consumers keep reading the sum
}

TEST(ServerMetrics, OverloadCountersFlowIntoReportAndRendering) {
  ServerMetrics m;
  m.on_shed();
  m.on_shed();
  m.on_breaker_reject();
  m.on_breaker_trip();
  m.on_brownout(/*n=*/5, /*factor=*/0.5);
  m.on_brownout(/*n=*/3, /*factor=*/0.25);
  m.on_pressure(0.75);
  const MetricsReport r = m.report();
  EXPECT_EQ(r.shed, 2u);
  EXPECT_EQ(r.breaker_rejections, 1u);
  EXPECT_EQ(r.breaker_trips, 1u);
  EXPECT_EQ(r.browned_out, 8u);
  EXPECT_DOUBLE_EQ(r.brownout_min_factor, 0.25);  // lowest ever dispatched
  EXPECT_DOUBLE_EQ(r.brownout_pressure, 0.75);
  const std::string s = to_string(r);
  EXPECT_NE(s.find("overload"), std::string::npos);
  EXPECT_NE(s.find("shed"), std::string::npos);
  EXPECT_NE(s.find("browned out"), std::string::npos);
}

TEST(ServerMetrics, OverloadSectionOmittedWhenQuiet) {
  ServerMetrics m;
  m.on_submit(1);
  m.on_complete_ok(1.0, 0.1);
  EXPECT_EQ(to_string(m.report()).find("overload"), std::string::npos);
}

TEST(ServerMetrics, ConcurrentRecordingLosesNothing) {
  ServerMetrics m;
  const std::size_t kThreads = 4, kEach = 500;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&m] {
      for (std::size_t i = 0; i < kEach; ++i) {
        m.on_submit(1);
        m.on_complete_ok(0.25 + double(i % 7), 0.1);
        if (i % 10 == 0) m.on_reject();
      }
    });
  }
  for (auto& t : ts) t.join();

  const MetricsReport r = m.report();
  EXPECT_EQ(r.submitted, kThreads * kEach);
  EXPECT_EQ(r.completed_ok, kThreads * kEach);
  EXPECT_EQ(r.rejected, kThreads * (kEach / 10));
}

TEST(ServerMetrics, ToStringMentionsTheHeadlineNumbers) {
  ServerMetrics m;
  m.on_submit(1);
  m.on_batch(1);
  m.on_complete_ok(2.0, 0.5);
  const std::string s = to_string(m.report());
  EXPECT_NE(s.find("p999"), std::string::npos);
  EXPECT_NE(s.find("throughput"), std::string::npos);
  EXPECT_NE(s.find("rejected"), std::string::npos);
  EXPECT_NE(s.find("batch"), std::string::npos);
}

}  // namespace
}  // namespace annsim::serve
