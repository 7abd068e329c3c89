#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads (see perfbench/README.md).

#include "bench.hpp"

namespace perfbench {

/// Run `o.workload` end to end into `r` and, when `o.trace` is set, its
/// per-layer probes. Throws on an unknown workload.
void run_workload(const Options& o, Report& r);

}  // namespace perfbench
