/// \file main.cpp
/// \brief perfbench: runs one workload of the end-to-end benchmark and
/// prints its figures, human-readable first and as one JSON object on the
/// last line of standard output.
///
///   perfbench --workload sift-batch|sift-serve|mixed-write --seed N
///             --seconds S --trace 0|1 --work-dir DIR
///
/// Exit status: 0 when every correctness gate passed; 1 when one failed
/// (the result line then reads "correct": false); 2 on a usage error or an
/// exception, with no result line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "annsim/common/error.hpp"
#include "annsim/simd/distance.hpp"
#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(p * double(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double window_figure(const std::vector<double>& per_window,
                     bool higher_is_better) {
  return percentile(per_window,
                    higher_is_better ? 1.0 - kQuietShare : kQuietShare);
}

namespace {

bool known_metric(const std::string& name) {
  const auto named = [&](const MetricSpec& s) { return name == s.name; };
  return std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd), named) ||
         std::any_of(std::begin(kPerLayer), std::end(kPerLayer), named);
}

}  // namespace

void Report::set(const std::string& name, double value) {
  ANNSIM_CHECK_MSG(known_metric(name), "unknown metric " << name);
  if (!std::isfinite(value)) {
    gate(false, "metric " + name + " is finite");
    value = 0.0;
  }
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::gate(bool ok, const std::string& what) {
  std::printf("gate %-56s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) failures_.push_back(what);
}

}  // namespace perfbench

namespace {

using perfbench::MetricSpec;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sift-batch|sift-serve|mixed-write --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why.c_str());
  return 2;
}

template <std::size_t N>
void print_table(const char* title, const MetricSpec (&specs)[N],
                 const perfbench::Report& r) {
  std::printf("%s:\n", title);
  for (const auto& s : specs) {
    std::printf("  %-32s %16.6g %s\n", s.name, r.get(s.name), s.unit);
  }
}

template <std::size_t N>
void print_result(const MetricSpec (&specs)[N], const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < N; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, r.get(specs[i].name),
                specs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string v = argv[i + 1];
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (flag == "--work-dir") {
        o.work_dir = v;
      } else {
        return usage("unknown argument " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (o.workload.empty() || o.work_dir.empty()) {
    return usage("--workload and --work-dir are required");
  }
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u kernel_isa=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency(),
              annsim::simd::kernel_isa().c_str());
  perfbench::Report r;
  int status = 0;
  try {
    std::filesystem::create_directories(o.work_dir);
    perfbench::run_workload(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  if (status != 0) return status;

  if (o.trace) {
    print_table("per-layer", perfbench::kPerLayer, r);
    // The measured phase runs the same code in both modes and the probes
    // come after it, so tracing moves no end-to-end figure.
    std::printf("tracing overhead on the end-to-end metrics (traced - "
                "untraced), 0 by construction:\n");
    for (const auto& s : perfbench::kEndToEnd) {
      std::printf("  trace.overhead.%-17s %16d %s\n", s.name, 0, s.unit);
    }
    print_result(perfbench::kPerLayer, r);
  } else {
    print_result(perfbench::kEndToEnd, r);
  }
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
