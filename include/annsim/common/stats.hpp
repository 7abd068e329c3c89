#pragma once
/// \file stats.hpp
/// \brief Streaming statistics and percentile summaries for benchmark output.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace annsim {

/// Welford's online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / double(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  void merge(const RunningStats& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) { *this = o; return; }
    const double d = o.mean_ - mean_;
    const std::size_t n = n_ + o.n_;
    m2_ += o.m2_ + d * d * double(n_) * double(o.n_) / double(n);
    mean_ += d * double(o.n_) / double(n);
    n_ = n;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Streaming geometric-bucket histogram for positive, latency-like samples.
///
/// Buckets grow by a constant factor (`growth`), so percentile estimates
/// carry a bounded *relative* error of at most `growth - 1` while memory
/// stays fixed — the standard layout for serving-latency telemetry, where
/// p50 may be microseconds and p999 may be seconds. Exact min/max/mean/sum
/// are tracked on the side, and `percentile(0)` / `percentile(100)` return
/// the exact observed extremes.
///
/// Samples below `lo` land in an underflow bucket, samples at or above the
/// top bucket in an overflow bucket; both interpolate against the exact
/// observed min/max, so out-of-range data degrades gracefully instead of
/// being dropped.
class Histogram {
 public:
  /// `lo`..`hi` is the resolvable range; `growth` the per-bucket factor.
  explicit Histogram(double lo = 1e-6, double hi = 1e6, double growth = 1.08);

  void add(double x) noexcept;

  /// Merge another histogram; layouts (lo/hi/growth) must match.
  void merge(const Histogram& o);

  [[nodiscard]] std::size_t count() const noexcept { return raw_.count(); }
  [[nodiscard]] double min() const noexcept { return raw_.min(); }
  [[nodiscard]] double max() const noexcept { return raw_.max(); }
  [[nodiscard]] double mean() const noexcept { return raw_.mean(); }
  [[nodiscard]] double sum() const noexcept { return raw_.sum(); }

  /// Estimated percentile, p in [0, 100] (throws annsim::Error outside).
  /// Empty histogram returns 0.0; p=0 and p=100 are the exact min/max.
  [[nodiscard]] double percentile(double p) const;

  /// Convenience tail quantiles for serving telemetry.
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
  [[nodiscard]] double p999() const { return percentile(99.9); }

  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }

 private:
  [[nodiscard]] std::size_t bucket_of(double x) const noexcept;
  /// [lower, upper) value bounds of bucket b, clamped to observed extremes.
  [[nodiscard]] std::pair<double, double> bucket_bounds(std::size_t b) const noexcept;

  double lo_ = 0.0;
  double inv_log_growth_ = 0.0;
  double growth_ = 0.0;
  std::vector<std::uint64_t> counts_;  ///< [underflow, b0..bn-1, overflow]
  RunningStats raw_;                   ///< exact min/max/mean/sum on the side
};

/// Five-number summary + mean of a sample (used for Fig 4(b)-style
/// load-distribution reporting).
struct Summary {
  double min = 0, p25 = 0, median = 0, p75 = 0, max = 0, mean = 0;
  std::size_t count = 0;
};

/// Linear-interpolated percentile of an unsorted sample (copies the input).
[[nodiscard]] double percentile(std::span<const double> sample, double p);

/// Build a five-number summary of a sample.
[[nodiscard]] Summary summarize(std::span<const double> sample);

/// summarize() of the sample holding `counts[v]` copies of each integer v,
/// bit for bit, in space that grows with the largest value, not the count.
[[nodiscard]] Summary summarize_counts(std::span<const std::uint64_t> counts);

/// Median of an unsorted sample (copies).
[[nodiscard]] double median(std::span<const double> sample);

/// Render a Summary as "min/p25/med/p75/max (mean)" for table output.
[[nodiscard]] std::string to_string(const Summary& s);

}  // namespace annsim
