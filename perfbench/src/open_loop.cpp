#include "open_loop.hpp"

#include <chrono>
#include <future>
#include <thread>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "bench.hpp"

namespace perfbench {

std::vector<Request> run_open_loop(annsim::serve::QueryServer& server,
                                   const annsim::data::Dataset& queries,
                                   const OpenLoop& load) {
  ANNSIM_CHECK(load.qps > 0.0 && load.seconds > 0.0 && !queries.empty());
  annsim::Rng rng(load.seed);
  std::vector<Request> reqs;
  for (double t = rng.exponential(load.qps); t < load.seconds;
       t += rng.exponential(load.qps)) {
    Request r;
    r.sched_s = t;
    r.query = std::size_t(rng.uniform_below(queries.size()));
    reqs.push_back(std::move(r));
  }

  std::vector<std::future<annsim::serve::QueryResponse>> answers;
  answers.reserve(reqs.size());
  const auto t0 = Clock::now();
  for (auto& r : reqs) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(r.sched_s));
    std::this_thread::sleep_until(due);
    r.lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    const auto row = queries.row_span(r.query);
    answers.push_back(
        server.submit(std::vector<float>(row.begin(), row.end()), load.k));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].response = answers[i].get();
    // total_ms runs from admission, which submit() stamps on entry, right
    // after the send time the lag was measured at.
    reqs[i].latency_ms = reqs[i].lag_ms + reqs[i].response.total_ms;
  }
  return reqs;
}

}  // namespace perfbench
