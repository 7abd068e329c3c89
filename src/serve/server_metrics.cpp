#include "annsim/serve/server_metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace annsim::serve {

namespace {

void tally(std::vector<std::uint64_t>& counts, std::size_t value) {
  if (value >= counts.size()) counts.resize(value + 1, 0);
  ++counts[value];
}

}  // namespace

void ServerMetrics::on_submit(std::size_t queue_depth_after_admission) {
  std::lock_guard lk(mu_);
  ++submitted_;
  tally(queue_depth_counts_, queue_depth_after_admission);
  if (!saw_submit_) {
    saw_submit_ = true;
    first_submit_ = Clock::now();
    last_complete_ = first_submit_;
  }
}

void ServerMetrics::on_reject() {
  std::lock_guard lk(mu_);
  ++rejected_;
}

void ServerMetrics::on_expire_in_queue() {
  std::lock_guard lk(mu_);
  ++expired_in_queue_;
  last_complete_ = Clock::now();
}

void ServerMetrics::on_complete_late() {
  std::lock_guard lk(mu_);
  ++completed_late_;
  last_complete_ = Clock::now();
}

void ServerMetrics::on_shed() {
  std::lock_guard lk(mu_);
  ++shed_;
  last_complete_ = Clock::now();
}

void ServerMetrics::on_breaker_reject() {
  std::lock_guard lk(mu_);
  ++breaker_rejections_;
  last_complete_ = Clock::now();
}

void ServerMetrics::on_breaker_trip() {
  std::lock_guard lk(mu_);
  ++breaker_trips_;
}

void ServerMetrics::on_brownout(std::size_t n, double factor) {
  std::lock_guard lk(mu_);
  browned_out_ += n;
  min_factor_ = std::min(min_factor_, factor);
}

void ServerMetrics::on_pressure(double pressure) {
  std::lock_guard lk(mu_);
  pressure_ = pressure;
}

void ServerMetrics::on_fail() {
  std::lock_guard lk(mu_);
  ++failed_;
  last_complete_ = Clock::now();
}

void ServerMetrics::on_batch(std::size_t batch_size) {
  std::lock_guard lk(mu_);
  ++batches_;
  tally(batch_size_counts_, batch_size);
}

void ServerMetrics::on_complete_ok(double latency_ms, double queue_wait_ms) {
  std::lock_guard lk(mu_);
  ++completed_ok_;
  latency_ms_.add(latency_ms);
  queue_wait_ms_.add(queue_wait_ms);
  last_complete_ = Clock::now();
}

void ServerMetrics::on_complete_degraded(double latency_ms,
                                         double queue_wait_ms) {
  std::lock_guard lk(mu_);
  ++degraded_;
  latency_ms_.add(latency_ms);
  queue_wait_ms_.add(queue_wait_ms);
  last_complete_ = Clock::now();
}

void ServerMetrics::on_retry() {
  std::lock_guard lk(mu_);
  ++retries_;
}

void ServerMetrics::on_heal(std::size_t workers_revived,
                            bool coverage_restored,
                            std::size_t wal_replayed_records,
                            std::size_t wal_truncated_tail_bytes) {
  std::lock_guard lk(mu_);
  ++heals_;
  workers_revived_ += workers_revived;
  if (coverage_restored) ++coverage_restored_;
  wal_replayed_records_ += wal_replayed_records;
  wal_truncated_tail_bytes_ += wal_truncated_tail_bytes;
}

void ServerMetrics::on_health(std::size_t under_replicated) {
  std::lock_guard lk(mu_);
  under_replicated_ = under_replicated;
}

MetricsReport ServerMetrics::report() const {
  std::lock_guard lk(mu_);
  MetricsReport r;
  r.submitted = submitted_;
  r.completed_ok = completed_ok_;
  r.rejected = rejected_;
  r.expired_in_queue = expired_in_queue_;
  r.completed_late = completed_late_;
  r.expired = expired_in_queue_ + completed_late_;
  r.shed = shed_;
  r.breaker_rejections = breaker_rejections_;
  r.breaker_trips = breaker_trips_;
  r.browned_out = browned_out_;
  r.brownout_pressure = pressure_;
  r.brownout_min_factor = min_factor_;
  r.failed = failed_;
  r.degraded = degraded_;
  r.retries = retries_;
  r.batches = batches_;
  r.heals = heals_;
  r.workers_revived = workers_revived_;
  r.coverage_restored = coverage_restored_;
  r.wal_replayed_records = wal_replayed_records_;
  r.wal_truncated_tail_bytes = wal_truncated_tail_bytes_;
  r.under_replicated_partitions = under_replicated_;
  if (saw_submit_) {
    r.wall_seconds =
        std::chrono::duration<double>(last_complete_ - first_submit_).count();
  }
  if (r.wall_seconds > 0) {
    r.throughput_qps = double(completed_ok_) / r.wall_seconds;
  }
  r.latency_mean_ms = latency_ms_.mean();
  r.latency_p50_ms = latency_ms_.p50();
  r.latency_p95_ms = latency_ms_.p95();
  r.latency_p99_ms = latency_ms_.p99();
  r.latency_p999_ms = latency_ms_.p999();
  r.latency_max_ms = latency_ms_.max();
  r.queue_wait_mean_ms = queue_wait_ms_.mean();
  r.queue_depth = summarize_counts(queue_depth_counts_);
  r.batch_size = summarize_counts(batch_size_counts_);
  return r;
}

std::string to_string(const MetricsReport& r) {
  char buf[704];
  std::snprintf(
      buf, sizeof(buf),
      "requests: %zu submitted, %zu ok, %zu rejected, %zu expired "
      "(%zu in queue, %zu late), %zu failed, %zu degraded (%zu retries)\n"
      "throughput: %.0f q/s over %.3fs (%zu dispatch rounds)\n"
      "latency ms: mean %.3f p50 %.3f p95 %.3f p99 %.3f p999 %.3f max %.3f "
      "(queue wait mean %.3f)\n"
      "batch size (in flight per round): %s\n"
      "queue depth: %s",
      r.submitted, r.completed_ok, r.rejected, r.expired, r.expired_in_queue,
      r.completed_late, r.failed, r.degraded, r.retries,
      r.throughput_qps, r.wall_seconds, r.batches, r.latency_mean_ms,
      r.latency_p50_ms, r.latency_p95_ms, r.latency_p99_ms, r.latency_p999_ms,
      r.latency_max_ms, r.queue_wait_mean_ms,
      annsim::to_string(r.batch_size).c_str(),
      annsim::to_string(r.queue_depth).c_str());
  std::string out = buf;
  if (r.shed > 0 || r.breaker_trips > 0 || r.breaker_rejections > 0 ||
      r.browned_out > 0 || r.brownout_pressure > 0.0) {
    char ov_buf[224];
    std::snprintf(ov_buf, sizeof(ov_buf),
                  "\noverload: %zu shed, %zu breaker rejections (%zu trips), "
                  "%zu browned out (min effort %.2f, pressure %.2f)",
                  r.shed, r.breaker_rejections, r.breaker_trips, r.browned_out,
                  r.brownout_min_factor, r.brownout_pressure);
    out += ov_buf;
  }
  if (r.heals > 0 || r.under_replicated_partitions > 0) {
    char heal_buf[256];
    std::snprintf(heal_buf, sizeof(heal_buf),
                  "\nhealing: %zu heals, %zu workers revived, %zu restored "
                  "full coverage, %zu partitions under-replicated, %zu wal "
                  "records replayed, %zu wal tail bytes truncated",
                  r.heals, r.workers_revived, r.coverage_restored,
                  r.under_replicated_partitions, r.wal_replayed_records,
                  r.wal_truncated_tail_bytes);
    out += heal_buf;
  }
  return out;
}

}  // namespace annsim::serve
