#include "annsim/common/stats.hpp"

#include <cstdio>

#include "annsim/common/error.hpp"

namespace annsim {

namespace {

/// Linear-interpolated percentile p of a sorted sample of n >= 1 values,
/// read through `nth(i)`, the value at rank i.
template <typename Nth>
double ranked_percentile(std::size_t n, double p, const Nth& nth) {
  const double pos = p / 100.0 * double(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - double(lo);
  return nth(lo) + frac * (nth(hi) - nth(lo));
}

/// summarize() of a sorted sample of n values read through `nth`.
template <typename Nth>
Summary ranked_summary(std::size_t n, double sum, const Nth& nth) {
  Summary s;
  if (n == 0) return s;
  s.min = nth(0);
  s.p25 = ranked_percentile(n, 25, nth);
  s.median = ranked_percentile(n, 50, nth);
  s.p75 = ranked_percentile(n, 75, nth);
  s.max = nth(n - 1);
  s.count = n;
  s.mean = sum / double(n);
  return s;
}

}  // namespace

double percentile(std::span<const double> sample, double p) {
  ANNSIM_CHECK(!sample.empty());
  ANNSIM_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> v(sample.begin(), sample.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  return ranked_percentile(v.size(), p, [&](std::size_t i) { return v[i]; });
}

Histogram::Histogram(double lo, double hi, double growth) : lo_(lo), growth_(growth) {
  ANNSIM_CHECK_MSG(lo > 0 && hi > lo, "Histogram range must satisfy 0 < lo < hi");
  ANNSIM_CHECK_MSG(growth > 1.0, "Histogram bucket growth must exceed 1");
  inv_log_growth_ = 1.0 / std::log(growth);
  const auto n_buckets = static_cast<std::size_t>(
      std::ceil(std::log(hi / lo) * inv_log_growth_));
  counts_.assign(n_buckets + 2, 0);  // + underflow and overflow
}

std::size_t Histogram::bucket_of(double x) const noexcept {
  if (!(x >= lo_)) return 0;  // underflow (also catches NaN deterministically)
  const auto i = static_cast<std::size_t>(std::log(x / lo_) * inv_log_growth_);
  return std::min(i + 1, counts_.size() - 1);
}

std::pair<double, double> Histogram::bucket_bounds(std::size_t b) const noexcept {
  double lower, upper;
  if (b == 0) {
    lower = raw_.min();
    upper = lo_;
  } else if (b == counts_.size() - 1) {
    lower = lo_ * std::pow(growth_, double(b - 1));
    upper = raw_.max();
  } else {
    lower = lo_ * std::pow(growth_, double(b - 1));
    upper = lower * growth_;
  }
  lower = std::clamp(lower, raw_.min(), raw_.max());
  upper = std::clamp(upper, raw_.min(), raw_.max());
  return {lower, std::max(upper, lower)};
}

void Histogram::add(double x) noexcept {
  ++counts_[bucket_of(x)];
  raw_.add(x);
}

void Histogram::merge(const Histogram& o) {
  ANNSIM_CHECK_MSG(counts_.size() == o.counts_.size() && lo_ == o.lo_ &&
                       growth_ == o.growth_,
                   "cannot merge histograms with different layouts");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  raw_.merge(o.raw_);
}

double Histogram::percentile(double p) const {
  ANNSIM_CHECK(p >= 0.0 && p <= 100.0);
  const std::size_t n = raw_.count();
  if (n == 0) return 0.0;
  if (p == 0.0) return raw_.min();
  if (p == 100.0 || n == 1) return raw_.max();
  // Same rank convention as percentile(span, p): rank in [0, n-1].
  const double rank = p / 100.0 * double(n - 1);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::uint64_t c = counts_[b];
    if (c == 0) continue;
    if (rank < double(before + c)) {
      const auto [lower, upper] = bucket_bounds(b);
      // Spread the bucket's c samples evenly across its value range.
      const double frac = (rank - double(before) + 0.5) / double(c);
      return std::clamp(lower + frac * (upper - lower), raw_.min(), raw_.max());
    }
    before += c;
  }
  return raw_.max();  // rank == n-1 fell past the last counted bucket
}

Summary summarize(std::span<const double> sample) {
  std::vector<double> v(sample.begin(), sample.end());
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (double x : v) sum += x;
  return ranked_summary(v.size(), sum, [&](std::size_t i) { return v[i]; });
}

Summary summarize_counts(std::span<const std::uint64_t> counts) {
  std::size_t n = 0;
  double sum = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    n += counts[v];
    sum += double(v) * double(counts[v]);
  }
  return ranked_summary(n, sum, [&](std::size_t i) {
    std::size_t v = 0;
    for (std::uint64_t seen = counts[0]; seen <= i; seen += counts[v]) ++v;
    return double(v);
  });
}

double median(std::span<const double> sample) { return percentile(sample, 50.0); }

std::string to_string(const Summary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.3g/%.3g/%.3g/%.3g/%.3g (mean %.3g)",
                s.min, s.p25, s.median, s.p75, s.max, s.mean);
  return buf;
}

}  // namespace annsim
