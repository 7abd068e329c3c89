/// \file test_layer_search.cpp
/// \brief The sorted-pool layer search against a reference copy of the
/// classic two-heap loop (a frontier min-heap beside a bounded result
/// max-heap). Both run over the same frozen graph with the same adjacency and
/// distance callables; they must return the same ascending beam, bit for bit,
/// after the same expansions and the same distance evaluations. SIFT-like
/// rows (integer coordinates) and a corpus of duplicated rows make distance
/// ties common, so the pool's tie rule is exercised: a candidate pushed past
/// the beam that ties the new worst distance is still expanded.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "annsim/common/rng.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/hnsw/layer_search.hpp"

namespace annsim::hnsw {
namespace {

// ---- reference: the two-heap beam search ----------------------------------

struct TwoHeapScratch {
  VisitedSet visited;
  std::vector<LocalId> ids;
  std::vector<float> dists;
  std::vector<Cand> frontier;  ///< min-heap
  std::vector<Cand> best;      ///< bounded max-heap, sorted ascending at exit
};

/// Beam search of width `ef` within one layer, as the two-heap loop ran it:
/// expand the nearest frontier entry until the frontier is empty or its
/// nearest entry is strictly farther than the `ef`-th best.
template <typename Adj, typename DistBatch>
void two_heap_search_layer(const Adj& adj, const DistBatch& dist_batch,
                           std::span<const LocalId> entries, int layer,
                           std::size_t ef, TwoHeapScratch& s) {
  const auto farther = [](const Cand& a, const Cand& b) { return b < a; };
  auto min_push = [&](Cand c) {
    s.frontier.push_back(c);
    std::push_heap(s.frontier.begin(), s.frontier.end(), farther);
  };
  auto max_push = [&](Cand c) {
    s.best.push_back(c);
    std::push_heap(s.best.begin(), s.best.end());
    if (s.best.size() > ef) {
      std::pop_heap(s.best.begin(), s.best.end());
      s.best.pop_back();
    }
  };
  s.visited.new_epoch();
  s.frontier.clear();
  s.best.clear();

  for (std::size_t i = 0; i < entries.size();) {
    std::size_t m = 0;
    for (; i < entries.size() && m < s.ids.size(); ++i) {
      if (s.visited.first_visit(entries[i])) s.ids[m++] = entries[i];
    }
    if (m == 0) continue;
    dist_batch(s.ids.data(), m, s.dists.data());
    for (std::size_t j = 0; j < m; ++j) {
      min_push({s.dists[j], s.ids[j]});
      max_push({s.dists[j], s.ids[j]});
    }
  }

  while (!s.frontier.empty()) {
    if (s.best.size() >= ef && s.frontier.front().dist > s.best.front().dist) {
      break;
    }
    std::pop_heap(s.frontier.begin(), s.frontier.end(), farther);
    const Cand c = s.frontier.back();
    s.frontier.pop_back();
    std::size_t m = 0;
    for (LocalId nb : adj(c.node, layer)) {
      if (s.visited.first_visit(nb)) s.ids[m++] = nb;
    }
    if (m == 0) continue;
    dist_batch(s.ids.data(), m, s.dists.data());
    for (std::size_t i = 0; i < m; ++i) {
      const float d = s.dists[i];
      if (s.best.size() < ef || d < s.best.front().dist) {
        min_push({d, s.ids[i]});
        max_push({d, s.ids[i]});
      }
    }
  }
  std::sort_heap(s.best.begin(), s.best.end());
}

// ---- fixture ----------------------------------------------------------------

/// A beam's work: adjacency reads (one per expansion) and distance
/// evaluations.
struct Work {
  std::size_t expansions = 0;
  std::size_t dist_evals = 0;
};

/// A frozen graph over `base` searched from `query`, with counting
/// adjacency and distance callables shared by both implementations.
class Beams {
 public:
  Beams(const FlatGraph& g, const data::Dataset& base, simd::Metric metric,
        const float* query)
      : g_(g), base_(base), dist_(metric, base.dim()), query_(query) {
    ref_.visited.resize(g.size());
    ref_.ids.resize(std::max<std::size_t>(g.max_degree(), 64));
    ref_.dists.resize(ref_.ids.size());
    pool_s_ = scratch_.acquire(g.size(), ref_.ids.size());
  }

  /// Counting adjacency and distance callables.
  auto adj(Work& w) const {
    return [this, &w](LocalId v, int layer) {
      ++w.expansions;
      return g_.neighbors(v, layer);
    };
  }
  auto dist_batch(Work& w) const {
    return [this, &w](const LocalId* ids, std::size_t m, float* out) {
      w.dist_evals += m;
      dist_.search_dist_batch(query_, base_.row(0), base_.stride(), ids, m,
                              out);
    };
  }

  /// Runs both searches from `entries` and checks they agree; returns the
  /// pool's ascending beam.
  const std::vector<Cand>& expect_same(std::span<const LocalId> entries,
                                       int layer, std::size_t ef,
                                       const std::string& what) {
    Work ref_work;
    Work pool_work;
    two_heap_search_layer(adj(ref_work), dist_batch(ref_work), entries, layer,
                          ef, ref_);
    search_layer(adj(pool_work), dist_batch(pool_work), [](LocalId) {},
                 entries, layer, ef, *pool_s_);
    const auto& got = pool_s_->best;
    EXPECT_EQ(pool_work.expansions, ref_work.expansions) << what;
    EXPECT_EQ(pool_work.dist_evals, ref_work.dist_evals) << what;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << what;
    EXPECT_EQ(got.size(), ref_.best.size()) << what;
    for (std::size_t i = 0; i < std::min(got.size(), ref_.best.size()); ++i) {
      EXPECT_EQ(got[i].node, ref_.best[i].node) << what << " pos " << i;
      EXPECT_EQ(got[i].dist, ref_.best[i].dist) << what << " pos " << i;
    }
    return got;
  }

 private:
  const FlatGraph& g_;
  const data::Dataset& base_;
  simd::DistanceComputer dist_;
  const float* query_;
  TwoHeapScratch ref_;
  ScratchPool scratch_;
  std::unique_ptr<SearchScratch> pool_s_;
};

enum class Corpus { kSift, kDuplicated };

/// The corpus and its queries. kDuplicated repeats 200 distinct SIFT-like
/// rows four times each and asks half its queries at base rows, so whole
/// groups of candidates sit at exactly the same distance.
data::Workload make_corpus(Corpus c) {
  if (c == Corpus::kSift) return data::make_sift_like(1200, 16, 91);
  auto src = data::make_sift_like(200, 16, 92);
  data::Workload w;
  w.base.reset(800, src.base.dim());
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    w.base.set_row(i, src.base.row_span(i % 200));
  }
  w.queries.reset(16, src.base.dim());
  for (std::size_t q = 0; q < 16; ++q) {
    w.queries.set_row(q, q % 2 == 0 ? src.base.row_span(q * 7)
                                    : src.queries.row_span(q));
  }
  return w;
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<Corpus, simd::Metric>>& info) {
  return std::string(std::get<0>(info.param) == Corpus::kSift ? "Sift"
                                                              : "Dup") +
         "_" + simd::metric_name(std::get<1>(info.param));
}

class LayerSearch
    : public ::testing::TestWithParam<std::tuple<Corpus, simd::Metric>> {};

TEST_P(LayerSearch, PoolMatchesTwoHeapLoopTiesIncluded) {
  const auto [corpus, metric] = GetParam();
  const auto w = make_corpus(corpus);
  HnswParams p;
  p.M = 8;
  p.ef_construction = 40;
  p.seed = 77;
  p.metric = metric;
  HnswIndex index(&w.base, p);
  index.build();
  const FlatGraph& g = index.flat_graph();

  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    Beams beams(g, w.base, metric, w.queries.row(q));
    const std::string at = "query " + std::to_string(q);

    // Greedy descent, one ef-1 beam per upper layer.
    LocalId entry = g.entry_point();
    for (int layer = g.max_level(); layer > 0; --layer) {
      const auto& best = beams.expect_same({&entry, 1}, layer, 1,
                                           at + " layer " + std::to_string(layer));
      ASSERT_FALSE(best.empty());
      entry = best.front().node;
    }
    // Layer-0 beams from the descended entry.
    for (const std::size_t ef : {1, 10, 64, 200}) {
      (void)beams.expect_same({&entry, 1}, 0, ef,
                              at + " ef " + std::to_string(ef));
    }
    // More entry points than the beam holds: they go in ungated and the
    // surplus is evicted before the first expansion.
    std::vector<LocalId> entries;
    Rng rng(q + 5);
    for (int i = 0; i < 40; ++i) {
      entries.push_back(LocalId(rng.uniform_below(w.base.size())));
    }
    for (const std::size_t ef : {1, 10}) {
      (void)beams.expect_same(entries, 0, ef,
                              at + " 40 entries ef " + std::to_string(ef));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CorporaAndMetrics, LayerSearch,
    ::testing::Combine(::testing::Values(Corpus::kSift, Corpus::kDuplicated),
                       ::testing::Values(simd::Metric::kL2, simd::Metric::kL1,
                                         simd::Metric::kInnerProduct,
                                         simd::Metric::kCosine)),
    case_name);

}  // namespace
}  // namespace annsim::hnsw
