#pragma once
/// A deterministic hold on an engine's search cohort for serving tests: a
/// one-query engine.search runs on another thread and parks in its
/// completion hook until release(). A server's stream cannot open while the
/// hold stands, so every request the server admits meanwhile stays queued —
/// whatever the timing — which is what tests of admission-queue behaviour
/// (capacity, eviction, in-queue expiry) need.

#include <future>
#include <thread>

#include "annsim/core/engine.hpp"
#include "annsim/data/dataset.hpp"

namespace annsim::serve {

class CohortHold {
 public:
  /// Returns once the hold stands: the search is inside its operation.
  CohortHold(core::DistributedAnnEngine& engine, const data::Dataset& queries)
      : one_(queries.slice(0, 1)) {
    auto held = holding_.get_future();
    thread_ = std::thread([&engine, this, release = release_.get_future()] {
      (void)engine.search(one_, 1, 0, nullptr,
                          [&](std::size_t, const std::vector<Neighbor>&,
                              const core::QueryCoverage&) {
                            holding_.set_value();
                            release.wait();
                          });
    });
    held.wait();
  }
  CohortHold(const CohortHold&) = delete;
  CohortHold& operator=(const CohortHold&) = delete;
  ~CohortHold() { release(); }

  /// Let the search finish; the server's stream opens after it.
  void release() {
    if (!thread_.joinable()) return;
    release_.set_value();
    thread_.join();
  }

 private:
  data::Dataset one_;
  std::promise<void> holding_;
  std::promise<void> release_;
  std::thread thread_;
};

}  // namespace annsim::serve
