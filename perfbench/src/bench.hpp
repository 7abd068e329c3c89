#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the end-to-end benchmark: run options, the fixed
/// engine shape every workload uses, the metric tables a run reports, and
/// sample statistics.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "annsim/core/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch for write-ahead logs; removed at exit
};

// ---- the engine and load shape shared by all workloads ----
inline constexpr std::size_t kBaseRows = 50000;
inline constexpr std::size_t kQueries = 1000;
inline constexpr std::size_t kK = 10;
inline constexpr std::size_t kEf = 64;
/// Engine builds per run; setup_s is their median. At 3 the median still
/// moved 0.12 to 0.32 of itself over ten seeds on a shared 4-core host.
inline constexpr std::size_t kSetupRepeats = 5;
/// Each measured phase is cut into up to this many equal windows (an
/// open-loop window holds at least 1000 requests, so 10 lie beyond its p99).
inline constexpr std::size_t kWindows = 10;

/// The paper's engine as every workload runs it: 4 workers, r=2, n_probe=2
/// (at 4 probes every query would visit every partition and routing would
/// do nothing), one-sided RMA result accumulation, one thread per worker.
/// `live` switches the partitions to segmented SQ8 indexes that take writes.
[[nodiscard]] annsim::core::EngineConfig engine_config(bool live);

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// Share of windows a windowed figure is read at, from the good end: the
/// 30th percentile across windows of a latency, the 70th of a throughput.
/// The host is shared, and stalls from outside the program hit a share of
/// the windows that differs from run to run (a median of p99s still moved
/// 0.34 of itself across ten sift-serve runs at 3000 q/s; this reading moved
/// 0.07). It reads the program in its quieter windows and tolerates
/// interference in up to 70% of them. The program's own stalls, such as a
/// major compaction, also land in few windows, so they show in the
/// per-layer metrics, not here.
inline constexpr double kQuietShare = 0.3;

/// A figure read across windows at kQuietShare from its good end.
[[nodiscard]] double window_figure(const std::vector<double>& per_window,
                                   bool higher_is_better);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: the result line of an untraced run carries exactly
/// these (BENCHMARK.json "end_to_end" lists the same names).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},   {"qps", "q/s"},         {"recall_at_10", "ratio"},
    {"p50_ms", "ms"},   {"ok_rate", "ratio"},   {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics: the result line of a traced run carries exactly these
/// (BENCHMARK.json "per_layer"). A layer the workload never runs reports 0.
/// The end-to-end tails p99_ms and write_p*_ms ride here, unbounded: on a
/// shared host the open-loop p99 did not repeat within 0.25 of itself.
/// A traced run measures its workload exactly as an untraced one does and
/// runs the probes afterwards, so tracing moves no end-to-end figure; its
/// whole cost is the wall time the probes add, trace.overhead_s.
inline constexpr MetricSpec kPerLayer[] = {
    {"p99_ms", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.service_ms.p50", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.rejected", "count"},
    {"serve.expired", "count"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"loadgen.lag_ms.p99", "ms"},
    {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},
    {"core.search_ms.b1", "ms"},
    {"core.search_ms.b32", "ms"},
    {"core.route_us_per_q", "us"},
    {"core.dispatch_us_per_q", "us"},
    {"core.merge_us_per_q", "us"},
    {"core.worker_compute_us_per_job", "us"},
    {"core.worker_comm_us_per_job", "us"},
    {"core.master_idle_share", "ratio"},
    {"core.jobs_per_query", "count"},
    {"core.job_imbalance", "ratio"},
    {"core.write_round_ms", "ms"},
    {"mpi.runtime_run_us", "us"},
    {"mpi.msgs_per_query", "count"},
    {"mpi.bytes_per_query", "B"},
    {"mpi.rma_ops_per_query", "count"},
    {"vptree.route_us", "us"},
    {"hnsw.search_us", "us"},
    {"hnsw.build_s", "s"},
    {"simd.l2_ns", "ns"},
    {"simd.l2_u8_ns", "ns"},
    {"quant.search_us", "us"},
    {"quant.bytes_per_row", "B"},
    {"quant.rerank_exact_share", "ratio"},
    {"segment.insert_us", "us"},
    {"segment.erase_us", "us"},
    {"segment.search_us.delta", "us"},
    {"segment.compact_minor_ms", "ms"},
    {"segment.compact_major_ms", "ms"},
    {"recovery.commit_ms.p50", "ms"},
    {"recovery.commit_ms.p99", "ms"},
    {"recovery.wal_bytes_per_row", "B"},
    {"trace.overhead_s", "s"},
};

/// What one run measured and whether its outputs were right.
class Report {
 public:
  /// Record a metric named in kEndToEnd or kPerLayer (throws otherwise).
  void set(const std::string& name, double value);
  /// The recorded value, 0 when the run never measured it.
  [[nodiscard]] double get(const std::string& name) const;

  /// A correctness gate; any failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
