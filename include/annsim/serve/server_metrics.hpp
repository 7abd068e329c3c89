#pragma once
/// \file server_metrics.hpp
/// \brief Telemetry for the online serving plane: latency histogram with
/// tail quantiles (p50/p95/p99/p999), queue-depth and in-flight
/// distributions, throughput, and rejection/expiry counters.
///
/// All recording methods are thread-safe — clients submit concurrently and
/// completions fire from the engine's master thread — and cheap enough to
/// sit on the request path (one mutex, one histogram increment).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "annsim/common/stats.hpp"

namespace annsim::serve {

/// Immutable snapshot of the server's counters and distributions.
struct MetricsReport {
  std::size_t submitted = 0;      ///< admitted into the queue
  std::size_t completed_ok = 0;   ///< answered within deadline
  std::size_t rejected = 0;       ///< bounced by backpressure (queue full)
  /// Deadline misses, total: expired_in_queue + completed_late. Kept as the
  /// sum so pre-split dashboards and tests keep reading one number.
  std::size_t expired = 0;
  /// Culled while still queued — the deadline (or an overload cull) fired
  /// before any worker touched the request. High is *good* under overload:
  /// it means shedding happened before cycles were burned.
  std::size_t expired_in_queue = 0;
  /// The search ran to completion but finished past the deadline — worker
  /// time spent on an answer the client had already given up on. Overload
  /// control exists to drive this to zero.
  std::size_t completed_late = 0;
  std::size_t failed = 0;         ///< engine error or shutdown drop
  std::size_t degraded = 0;       ///< answered with partial coverage
  std::size_t retries = 0;        ///< degraded re-runs consumed (budget spend)
  std::size_t batches = 0;        ///< dispatch rounds that admitted queries

  // ---- overload control (zeros unless armed; see DESIGN.md §4.11) ----
  /// Admission-time culls: expired on arrival, won't-make-it (EWMA says the
  /// deadline is unreachable), or evicted by a higher-priority arrival.
  std::size_t shed = 0;
  std::size_t breaker_rejections = 0;  ///< fast-failed while the breaker was open
  std::size_t breaker_trips = 0;       ///< closed/half-open -> open transitions
  std::size_t browned_out = 0;   ///< queries dispatched below full effort
  double brownout_pressure = 0.0;   ///< controller pressure snapshot in [0, 1]
  double brownout_min_factor = 1.0; ///< lowest effort factor ever dispatched

  // ---- self-healing (auto_heal; zeros otherwise) ----
  std::size_t heals = 0;             ///< engine heal() passes triggered
  std::size_t workers_revived = 0;   ///< dead workers brought back, lifetime
  std::size_t coverage_restored = 0; ///< heals that restored every replica
  /// WAL records replayed past checkpoint watermarks across all heals
  /// (zeros unless the engine runs with EngineConfig::wal_dir).
  std::size_t wal_replayed_records = 0;
  /// Corrupt WAL tail bytes truncated while recovering revived workers'
  /// logs, across all heals.
  std::size_t wal_truncated_tail_bytes = 0;
  /// Partitions below the configured replication factor after the most
  /// recent stream (snapshot, not cumulative). 0 means full coverage.
  std::size_t under_replicated_partitions = 0;

  double wall_seconds = 0.0;      ///< first admission -> last completion
  double throughput_qps = 0.0;    ///< completed_ok / wall_seconds

  double latency_mean_ms = 0.0;   ///< end-to-end latency of ok completions
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_max_ms = 0.0;

  double queue_wait_mean_ms = 0.0;  ///< admission -> dispatch

  Summary queue_depth;  ///< depth observed after each admission
  Summary batch_size;   ///< queries in flight after each dispatch round
};

/// Multi-line human-readable rendering (bench / CLI output).
[[nodiscard]] std::string to_string(const MetricsReport& r);

class ServerMetrics {
 public:
  using Clock = std::chrono::steady_clock;

  void on_submit(std::size_t queue_depth_after_admission);
  void on_reject();
  /// Deadline fired while the request was still queued (pre-dispatch cull).
  void on_expire_in_queue();
  /// The search finished after the deadline (late completion).
  void on_complete_late();
  /// Admission-time overload cull (expired on arrival / won't-make-it /
  /// evicted for a higher class).
  void on_shed();
  /// Fast-fail because the circuit breaker was open.
  void on_breaker_reject();
  void on_breaker_trip();
  /// A dispatch round sent `n` queries below full effort, the lowest at
  /// `factor`.
  void on_brownout(std::size_t n, double factor);
  /// Brownout controller pressure after the latest dispatch round.
  void on_pressure(double pressure);
  void on_fail();
  /// A dispatch round admitted queries; `batch_size` are in flight now.
  void on_batch(std::size_t batch_size);
  /// An in-deadline completion; latencies in milliseconds.
  void on_complete_ok(double latency_ms, double queue_wait_ms);
  /// An in-deadline completion with partial coverage (kDegraded). Feeds the
  /// same latency histogram as ok completions — a degraded answer is still
  /// an answer the client waited for.
  void on_complete_degraded(double latency_ms, double queue_wait_ms);
  /// A degraded result withheld and requeued for another attempt.
  void on_retry();
  /// An engine heal() pass ran; `coverage_restored` = it repaired every
  /// missing replica. The WAL counters carry the heal's replay/truncation
  /// tallies (0 when the engine runs without EngineConfig::wal_dir).
  void on_heal(std::size_t workers_revived, bool coverage_restored,
               std::size_t wal_replayed_records = 0,
               std::size_t wal_truncated_tail_bytes = 0);
  /// Post-stream cluster snapshot: partitions below the replication factor.
  void on_health(std::size_t under_replicated);

  [[nodiscard]] MetricsReport report() const;

 private:
  mutable std::mutex mu_;
  // Latency from 1us to 100s at ~8% bucket resolution.
  Histogram latency_ms_{1e-3, 1e5, 1.08};
  RunningStats queue_wait_ms_;
  // Both distributions are of small integers (bounded by the admission
  // queue's capacity and the slot count): one count per value keeps them
  // exact in constant space.
  std::vector<std::uint64_t> queue_depth_counts_;
  std::vector<std::uint64_t> batch_size_counts_;
  std::size_t submitted_ = 0, completed_ok_ = 0, rejected_ = 0,
              expired_in_queue_ = 0, completed_late_ = 0, failed_ = 0,
              degraded_ = 0, retries_ = 0, batches_ = 0;
  std::size_t shed_ = 0, breaker_rejections_ = 0, breaker_trips_ = 0,
              browned_out_ = 0;
  double pressure_ = 0.0, min_factor_ = 1.0;
  std::size_t heals_ = 0, workers_revived_ = 0, coverage_restored_ = 0,
              under_replicated_ = 0;
  std::size_t wal_replayed_records_ = 0, wal_truncated_tail_bytes_ = 0;
  bool saw_submit_ = false;
  Clock::time_point first_submit_{};
  Clock::time_point last_complete_{};
};

}  // namespace annsim::serve
