/// The query stream's contract (DistributedAnnEngine::stream): whatever the
/// arrival grouping and however few result slots recycle under it, each
/// query's answer — ids and distance bits — equals the batch answer of
/// engine.search, on float HNSW and SQ8 segmented partitions, over both
/// result transports; a slot's next occupant is never touched by a late or
/// duplicated partial of the previous one; and a stream that declares a
/// worker dead stops admitting and ends.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

/// Hands the queries out in arrival groups: at most `group` per dispatch
/// round (and never more than the free slots), and keeps every answer.
class GroupSource final : public QuerySource {
 public:
  GroupSource(const data::Dataset& queries, std::size_t group)
      : results(queries.size()),
        answers(queries.size(), 0),
        queries_(queries),
        group_(group) {}

  bool pull(std::size_t free, std::vector<StreamQuery>& out,
            Clock::time_point& /*wake_at*/) override {
    const std::size_t end =
        std::min(queries_.size(), next_ + std::min(free, group_));
    for (; next_ < end; ++next_) {
      out.push_back({queries_.row_span(next_), next_, {}});
    }
    return next_ < queries_.size();
  }

  void done(std::uint64_t token, std::vector<Neighbor>&& result,
            const QueryCoverage& coverage) override {
    ASSERT_LT(token, results.size());
    ++answers[token];
    results[token] = std::move(result);
    EXPECT_TRUE(allow_degraded || !coverage.degraded()) << "query " << token;
  }

  bool allow_degraded = false;
  data::KnnResults results;
  std::vector<int> answers;  ///< done() calls per query: exactly one each

 private:
  const data::Dataset& queries_;
  std::size_t group_;
  std::size_t next_ = 0;
};

/// Ids and distance bits, query by query.
void expect_same_bits(const data::KnnResults& got,
                      const data::KnnResults& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << what << ", query " << q;
    for (std::size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << what << ", query " << q;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[q][i].dist),
                std::bit_cast<std::uint32_t>(want[q][i].dist))
          << what << ", query " << q;
    }
  }
}

EngineConfig stream_config(std::uint64_t seed, bool segmented) {
  EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.replication = 2;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 1;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  cfg.seed = seed;
  if (segmented) {
    cfg.local_index = LocalIndexKind::kSegmented;
    cfg.quantize_frozen = true;
  }
  return cfg;
}

constexpr std::size_t kK = 10;

// (seed, SQ8 segmented partitions)
using StreamCase = std::tuple<std::uint64_t, bool>;

class EngineStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(EngineStream, EveryArrivalGroupingAnswersLikeTheBatch) {
  const auto [seed, segmented] = GetParam();
  const auto w = data::make_sift_like(1200, 40, seed);
  DistributedAnnEngine eng(&w.base, stream_config(seed, segmented));
  eng.build();
  const auto batch = eng.search(w.queries, kK);

  for (const std::size_t group : {std::size_t{1}, std::size_t{7},
                                  std::size_t{32}, w.queries.size()}) {
    // As many slots as a group holds: below the whole set, every slot is
    // recycled, most of them many times.
    GroupSource source(w.queries, group);
    const SearchStats st = eng.stream(source, kK, group);
    const std::string what = "group " + std::to_string(group);
    expect_same_bits(source.results, batch, what);
    EXPECT_TRUE(std::all_of(source.answers.begin(), source.answers.end(),
                            [](int n) { return n == 1; }))
        << what;
    EXPECT_EQ(st.degraded_queries, 0u) << what;
    EXPECT_EQ(st.total_jobs, w.queries.size() * 2) << what;  // n_probe = 2
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsIndexes, EngineStream,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{431}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<StreamCase>& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) ? "_sq8" : "_hnsw");
    });

TEST(EngineStreamFaults, RecycledSlotsIgnoreDuplicatedAndDelayedPartials) {
  // Two slots, so every query's slot held another query a moment before,
  // while the fabric delivers data-plane messages twice (a duplicated job
  // is searched and accumulated again, after its query was answered and
  // its slot handed on) and stalls senders. The next occupant must answer
  // exactly as the fault-free engine does.
  const auto w = data::make_sift_like(1200, 48, 1);
  auto clean_cfg = stream_config(1, false);
  DistributedAnnEngine clean(&w.base, clean_cfg);
  clean.build();
  const auto reference = clean.search(w.queries, kK);

  auto cfg = clean_cfg;
  cfg.result_timeout_ms = 5000.0;  // nothing dies; detection must be armed
  cfg.fault.seed = 17;
  cfg.fault.duplicate_probability = 0.5;
  cfg.fault.delay_probability = 0.3;
  cfg.fault.delay = std::chrono::microseconds(300);
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  GroupSource source(w.queries, 2);
  const SearchStats st = eng.stream(source, kK, /*slots=*/2);
  expect_same_bits(source.results, reference, "two slots");
  EXPECT_TRUE(std::all_of(source.answers.begin(), source.answers.end(),
                          [](int n) { return n == 1; }));
  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);
  // The duplicates really ran: more jobs were searched than dispatched.
  std::uint64_t searched = 0;
  for (const auto n : st.jobs_per_worker) searched += n;
  EXPECT_GT(searched, st.total_jobs);
}

TEST(EngineStreamContract, RejectsZeroSlots) {
  const auto w = data::make_sift_like(400, 4, 3);
  DistributedAnnEngine eng(&w.base, stream_config(3, false));
  eng.build();
  GroupSource source(w.queries, 1);
  EXPECT_THROW((void)eng.stream(source, kK, 0), Error);
  eng.wake_stream();  // no stream open: a no-op
  GroupSource all(w.queries, w.queries.size());
  (void)eng.stream(all, kK, w.queries.size());
  EXPECT_EQ(all.answers, std::vector<int>(w.queries.size(), 1));
}

TEST(EngineStreamContract, DeclaringADeathStopsAdmissionAndEndsTheStream) {
  // Worker 1 is dead from the start and r = 1, so the first query that
  // needs partition 1 stalls until the deadline declares the death. From
  // then on the stream admits nothing: it drains and ends with queries
  // still in the source, and the engine records the death for heal().
  const auto w = data::make_sift_like(800, 32, 5);
  auto cfg = stream_config(5, false);
  cfg.replication = 1;
  cfg.result_timeout_ms = 40.0;
  cfg.fault.kills.push_back({/*rank=*/2, /*after_ops=*/0, mpi::kNeverFires});
  DistributedAnnEngine eng(&w.base, cfg);
  eng.build();

  GroupSource source(w.queries, 1);
  source.allow_degraded = true;
  const SearchStats st = eng.stream(source, kK, /*slots=*/1);
  EXPECT_EQ(st.workers_failed, 1u);
  EXPECT_GE(st.degraded_queries, 1u);
  std::size_t answered = 0;
  for (const int n : source.answers) answered += std::size_t(n);
  EXPECT_LT(answered, w.queries.size());  // the rest never left the source
  EXPECT_FALSE(eng.health().alive(1));
}

}  // namespace
}  // namespace annsim::core
