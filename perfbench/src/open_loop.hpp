#pragma once
/// \file open_loop.hpp
/// \brief The benchmark's open-loop load generator for serve::QueryServer.
///
/// One thread sends Poisson arrivals on a schedule fixed in advance and
/// times every request from its *scheduled* send time. A stall that makes
/// the generator late therefore still shows as latency on the requests it
/// delayed; serve::run_load times from admission and would hide it
/// (coordinated omission). How late the generator itself ran is kept per
/// request, so a run whose generator fell behind can be declared invalid.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "annsim/data/dataset.hpp"
#include "annsim/serve/query_server.hpp"

namespace perfbench {

struct OpenLoop {
  double qps = 1000.0;    ///< mean Poisson arrival rate
  double seconds = 1.0;   ///< schedule length
  std::uint64_t seed = 1; ///< arrival times and query choice
  std::size_t k = 10;
};

struct Request {
  double sched_s = 0.0;     ///< scheduled send time, seconds from phase start
  double lag_ms = 0.0;      ///< actual send time minus scheduled send time
  double latency_ms = 0.0;  ///< scheduled send time to answer
  std::size_t query = 0;    ///< row of the query set that was sent
  annsim::serve::QueryResponse response;
};

/// Send the schedule from the calling thread, then wait for every answer.
[[nodiscard]] std::vector<Request> run_open_loop(
    annsim::serve::QueryServer& server, const annsim::data::Dataset& queries,
    const OpenLoop& load);

}  // namespace perfbench
