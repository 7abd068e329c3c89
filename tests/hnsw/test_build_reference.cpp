/// \file test_build_reference.cpp
/// \brief HnswIndex construction against a reference copy of the classic
/// insert: neighbor lists as one vector per node and layer, and an
/// overflowing list re-selected by the full heuristic over distances
/// recomputed from the rows. The library's insert keeps every link's
/// distance and re-selects incrementally; both must build the same graph,
/// byte for byte in the ANN1 image, for every metric, M and seed. SIFT-like
/// rows (integer coordinates) and a corpus of duplicated rows make distance
/// ties common, so the (distance, node) order decides many selections.
///
/// A direct property test drives hnsw::reselect against the full heuristic
/// over random lists with tied distances, with the new link at every rank.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "annsim/common/rng.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/hnsw/layer_search.hpp"
#include "annsim/hnsw/neighbor_select.hpp"

namespace annsim::hnsw {
namespace {

// ---- reference: the classic insert ------------------------------------------

/// The full heuristic as the classic insert ran it: keep a candidate only if
/// it is nearer the owner than every kept one, stop once `m` are kept, then
/// backfill with the pruned. `verdict[i]` is 1 for kept, 0 for pruned and -1
/// for never tested. Returns the selected ids, kept first.
template <typename PairDist>
std::vector<LocalId> reference_select(const std::vector<Cand>& candidates,
                                      std::size_t m, const PairDist& pair_dist,
                                      std::size_t* n_kept = nullptr,
                                      std::vector<int>* verdict = nullptr) {
  std::vector<LocalId> kept;
  std::vector<LocalId> pruned;
  if (verdict != nullptr) verdict->assign(candidates.size(), -1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Cand& c = candidates[i];
    if (kept.size() >= m) break;
    bool closer_to_kept = false;
    for (LocalId s : kept) {
      if (pair_dist(c.node, s) < c.dist) {
        closer_to_kept = true;
        break;
      }
    }
    (closer_to_kept ? pruned : kept).push_back(c.node);
    if (verdict != nullptr) (*verdict)[i] = closer_to_kept ? 0 : 1;
  }
  if (n_kept != nullptr) *n_kept = kept.size();
  for (LocalId p : pruned) {
    if (kept.size() >= m) break;
    kept.push_back(p);
  }
  return kept;
}

/// Single-threaded HNSW insert over one vector per node and layer, which
/// re-selects an overflowing list by the full heuristic over distances
/// recomputed from the rows.
class ReferenceHnsw {
 public:
  ReferenceHnsw(const data::Dataset& data, HnswParams p)
      : data_(data), p_(p), dist_(p.metric, data.dim()), nodes_(data.size()) {
    if (p_.level_mult <= 0.0) p_.level_mult = 1.0 / std::log(double(p_.M));
    scratch_ = pool_.acquire(data.size(), 2 * p_.M);
  }

  void insert(LocalId node) {
    const float* qv = data_.row(node);
    Rng rng = Rng(p_.seed).split(node);
    double u = 0.0;
    while (u == 0.0) u = rng.uniform();
    const int level = int(-std::log(u) * p_.level_mult);
    nodes_[node].resize(std::size_t(level) + 1);
    if (entry_ == kInvalidLocalId) {
      entry_ = node;
      max_level_ = level;
      return;
    }

    SearchScratch& s = *scratch_;
    const auto adj = [this](LocalId v, int layer) -> std::span<const LocalId> {
      if (std::size_t(layer) >= nodes_[v].size()) return {};
      return nodes_[v][std::size_t(layer)];
    };
    const auto dist_batch = [&](const LocalId* ids, std::size_t m, float* out) {
      dist_.search_dist_batch(qv, data_.row(0), data_.stride(), ids, m, out);
    };
    const auto pair_dist = [this](LocalId a, LocalId b) {
      return dist_.search_dist(data_.row(a), data_.row(b));
    };
    const auto no_prefetch = [](LocalId) {};

    std::vector<LocalId> entries{greedy_descent(adj, dist_batch, no_prefetch,
                                                entry_, max_level_, level, s)};
    for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
      search_layer(adj, dist_batch, no_prefetch, entries, layer,
                   p_.ef_construction, s);
      const std::vector<Cand> candidates(s.best.begin(), s.best.end());
      const std::size_t m_layer = layer == 0 ? 2 * p_.M : p_.M;
      const auto neighbors = reference_select(candidates, p_.M, pair_dist);
      nodes_[node][std::size_t(layer)] = neighbors;
      for (LocalId nb : neighbors) {
        auto& links = nodes_[nb][std::size_t(layer)];
        if (links.size() < m_layer) {
          links.push_back(node);
          continue;
        }
        const float* nbv = data_.row(nb);
        std::vector<Cand> cands{{dist_.search_dist(nbv, qv), node}};
        for (LocalId x : links) {
          cands.push_back({dist_.search_dist(nbv, data_.row(x)), x});
        }
        std::sort(cands.begin(), cands.end());
        links = reference_select(cands, m_layer, pair_dist);
      }
      entries.clear();
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        entries.push_back(it->node);
      }
    }
    if (level > max_level_) {
      max_level_ = level;
      entry_ = node;
    }
  }

  /// The ANN1 image HnswIndex::to_bytes writes for the same graph.
  [[nodiscard]] std::vector<std::byte> to_bytes() const {
    BinaryWriter w;
    w.write(std::uint32_t{0x414E4E31});
    w.write(std::uint64_t(p_.M));
    w.write(std::uint64_t(p_.ef_construction));
    w.write(std::uint64_t(p_.ef_search));
    w.write(p_.level_mult);
    w.write(p_.seed);
    w.write(std::int32_t(p_.metric));
    w.write(std::uint64_t(data_.size()));
    w.write(std::int32_t(max_level_));
    w.write(std::uint32_t(entry_));
    for (const auto& layers : nodes_) {
      w.write(std::uint32_t(layers.size()));
      for (const auto& list : layers) {
        w.write_span(std::span<const LocalId>(list));
      }
    }
    return w.take();
  }

 private:
  const data::Dataset& data_;
  HnswParams p_;
  simd::DistanceComputer dist_;
  std::vector<std::vector<std::vector<LocalId>>> nodes_;
  LocalId entry_ = kInvalidLocalId;
  int max_level_ = -1;
  ScratchPool pool_;
  std::unique_ptr<SearchScratch> scratch_;
};

// ---- build equality -----------------------------------------------------------

enum class Corpus { kSift, kDuplicated };

/// The first 32 coordinates of 200 SIFT-like rows, which keeps the builds
/// cheap under the sanitizers while M = 64 lists still overflow.
/// kDuplicated repeats 50 distinct rows four times each, so whole groups of
/// candidates sit at exactly the same distance.
data::Workload make_corpus(Corpus c) {
  constexpr std::size_t kDim = 32;
  const std::size_t distinct = c == Corpus::kSift ? 200 : 50;
  const auto src = data::make_sift_like(distinct, 8, c == Corpus::kSift ? 41 : 42);
  data::Workload w;
  w.base.reset(200, kDim);
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    w.base.set_row(i, src.base.row_span(i % distinct).first(kDim));
  }
  w.queries.reset(src.queries.size(), kDim);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    w.queries.set_row(q, src.queries.row_span(q).first(kDim));
  }
  return w;
}

HnswParams params_for(simd::Metric metric, std::size_t M, std::uint64_t seed) {
  HnswParams p;
  p.M = M;
  p.ef_construction = std::max<std::size_t>(M, 24);
  p.seed = seed;
  p.metric = metric;
  return p;
}

using BuildCase = std::tuple<Corpus, simd::Metric, std::size_t>;

std::string case_name(const ::testing::TestParamInfo<BuildCase>& info) {
  return std::string(std::get<0>(info.param) == Corpus::kSift ? "Sift"
                                                              : "Dup") +
         "_" + simd::metric_name(std::get<1>(info.param)) + "_M" +
         std::to_string(std::get<2>(info.param));
}

class BuildReference : public ::testing::TestWithParam<BuildCase> {};

TEST_P(BuildReference, BuildMatchesClassicInsertByteForByte) {
  const auto [corpus, metric, M] = GetParam();
  const auto w = make_corpus(corpus);
  for (const std::uint64_t seed : {1, 431, 432}) {
    const HnswParams p = params_for(metric, M, seed);
    ReferenceHnsw ref(w.base, p);
    for (std::size_t i = 0; i < w.base.size(); ++i) ref.insert(LocalId(i));
    HnswIndex index(&w.base, p);
    index.build();
    EXPECT_TRUE(index.to_bytes() == ref.to_bytes()) << "seed " << seed;
  }
}

TEST_P(BuildReference, ReplayedInsertsWithSearchesMatchByteForByte) {
  const auto [corpus, metric, M] = GetParam();
  const auto w = make_corpus(corpus);
  const HnswParams p = params_for(metric, M, 431);
  // A shuffled arrival order, replayed into both.
  std::vector<LocalId> order(w.base.size());
  std::iota(order.begin(), order.end(), LocalId{0});
  Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_below(i)]);
  }
  ReferenceHnsw ref(w.base, p);
  HnswIndex index(&w.base, p);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ref.insert(order[i]);
    index.insert(order[i]);
    if (i % 16 == 0) {
      const auto res = index.search(w.queries.row(i % w.queries.size()), 5);
      EXPECT_LE(res.size(), 5u);
    }
  }
  index.check_links();
  const auto want = ref.to_bytes();
  EXPECT_TRUE(index.to_bytes() == want) << "linked form";
  index.freeze();
  EXPECT_TRUE(index.to_bytes() == want) << "frozen form";
}

INSTANTIATE_TEST_SUITE_P(
    CorporaMetricsAndM, BuildReference,
    ::testing::Combine(::testing::Values(Corpus::kSift, Corpus::kDuplicated),
                       ::testing::Values(simd::Metric::kL2, simd::Metric::kL1,
                                         simd::Metric::kInnerProduct,
                                         simd::Metric::kCosine),
                       ::testing::Values(std::size_t{4}, std::size_t{16},
                                         std::size_t{64})),
    case_name);

// ---- reselect against the full heuristic ---------------------------------------

/// Nodes with small-integer pair distances, so ties are everywhere. Pool
/// nodes have even ids; a new link takes an odd id to land at an exact
/// rank among tied entries.
class TiedSpace {
 public:
  TiedSpace(std::size_t n_ids, Rng& rng) : n_(n_ids), d_(n_ids * n_ids) {
    for (std::size_t a = 0; a < n_; ++a) {
      for (std::size_t b = a + 1; b < n_; ++b) {
        d_[a * n_ + b] = d_[b * n_ + a] = float(rng.uniform_below(6));
      }
    }
  }
  float operator()(LocalId a, LocalId b) const { return d_[a * n_ + b]; }

 private:
  std::size_t n_;
  std::vector<float> d_;
};

/// A list of capacity m in test-owned storage.
struct OwnedList {
  explicit OwnedList(std::size_t m) : head(2 + m), dists(m) {}
  LinkList view() { return {head.data(), dists.data()}; }
  std::vector<LocalId> head;
  std::vector<float> dists;
};

TEST(Reselect, MatchesFullHeuristicOnTiedListsWithXAtEveryRank) {
  std::size_t all_kept_farthest_dropped = 0;
  std::size_t x_dropped = 0;
  std::size_t full_with_one_left = 0;
  std::size_t flip_frees_pruned = 0;
  std::size_t unknown_statuses = 0;
  std::vector<std::size_t> rank_hits;
  ScratchPool pool;
  auto s = pool.acquire(1, 1);

  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    Rng rng(trial + 1);
    const std::size_t m = 2 + rng.uniform_below(9);
    rank_hits.resize(std::max(rank_hits.size(), m + 1));
    const std::size_t n_pool = 3 * m + 2;
    const TiedSpace space(2 * n_pool + 2, rng);

    // A known-status list is what a selection emits: pick m..3m candidates
    // at tied owner distances and store the heuristic's output.
    std::vector<Cand> pool_cands;
    for (std::size_t i = 1; i <= n_pool; ++i) {
      pool_cands.push_back({float(rng.uniform_below(5)), LocalId(2 * i)});
    }
    std::sort(pool_cands.begin(), pool_cands.end());
    const std::size_t n_cands = m + 1 + rng.uniform_below(2 * m);
    std::vector<Cand> cands(pool_cands.begin(), pool_cands.begin() + n_cands);
    std::size_t n_kept = 0;
    const auto start = reference_select(cands, m, space, &n_kept);
    ASSERT_EQ(start.size(), m);
    std::vector<Cand> state;
    for (LocalId id : start) {
      state.push_back(*std::find_if(cands.begin(), cands.end(),
                                    [id](const Cand& c) { return c.node == id; }));
    }
    std::vector<Cand> sorted_state = state;
    std::sort(sorted_state.begin(), sorted_state.end());

    for (std::size_t r = 0; r <= m; ++r) {
      // x just before sorted_state[r], or after the last entry.
      const Cand x = r < m ? Cand{sorted_state[r].dist, sorted_state[r].node - 1}
                           : Cand{sorted_state[m - 1].dist,
                                  sorted_state[m - 1].node + 1};
      // Statuses known (as stored), then unknown (shuffled, kept count 0).
      for (const bool known : {true, false}) {
        OwnedList list(m);
        std::vector<Cand> stored = state;
        if (!known) {
          for (std::size_t i = stored.size(); i > 1; --i) {
            std::swap(stored[i - 1], stored[rng.uniform_below(i)]);
          }
        }
        list.view().assign(stored, known ? n_kept : 0);

        std::vector<Cand> all = state;
        all.push_back(x);
        std::sort(all.begin(), all.end());
        std::size_t want_kept = 0;
        std::vector<int> verdict;
        const auto want = reference_select(all, m, space, &want_kept, &verdict);

        reselect(list.view(), m, x, space, *s);
        const LinkList got = list.view();
        const std::string at = "trial " + std::to_string(trial) + " rank " +
                               std::to_string(r) + (known ? " known" : " unknown");
        ASSERT_EQ(got.count(), m) << at;
        EXPECT_EQ(got.kept(), want_kept) << at;
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(got.ids()[i], want[i]) << at << " pos " << i;
          const auto it = std::find_if(all.begin(), all.end(), [&](const Cand& c) {
            return c.node == want[i];
          });
          EXPECT_EQ(got.dists[i], it->dist) << at << " pos " << i;
        }
        if (!known) {
          ++unknown_statuses;
          continue;
        }

        // Which edge cases this one exercised.
        const std::size_t x_rank = std::size_t(
            std::find_if(all.begin(), all.end(),
                         [&](const Cand& c) { return c.node == x.node; }) -
            all.begin());
        ++rank_hits[x_rank];
        if (n_kept == m && verdict[m] == -1) ++all_kept_farthest_dropped;
        if (std::find(want.begin(), want.end(), x.node) == want.end()) {
          ++x_dropped;
        }
        if (want_kept == m && verdict[m] == -1) ++full_with_one_left;
        bool demoted = false;
        for (std::size_t i = 0; i < all.size(); ++i) {
          const auto old = std::find_if(sorted_state.begin(), sorted_state.end(),
                                        [&](const Cand& c) {
                                          return c.node == all[i].node;
                                        });
          if (old == sorted_state.end()) continue;  // x
          const bool was_kept =
              std::find_if(state.begin(), state.begin() + long(n_kept),
                           [&](const Cand& c) { return c.node == old->node; }) !=
              state.begin() + long(n_kept);
          if (was_kept && verdict[i] == 0) demoted = true;
          if (!was_kept && verdict[i] == 1 && demoted) ++flip_frees_pruned;
        }
      }
    }
  }
  EXPECT_GT(all_kept_farthest_dropped, 0u);
  EXPECT_GT(x_dropped, 0u);
  EXPECT_GT(full_with_one_left, 0u);
  EXPECT_GT(flip_frees_pruned, 0u);
  EXPECT_GT(unknown_statuses, 0u);
  for (std::size_t r = 0; r < rank_hits.size(); ++r) {
    EXPECT_GT(rank_hits[r], 0u) << "x never at rank " << r;
  }
}

/// Repeated overflows of one list, each re-selection starting from the
/// state the previous one stored, as the build does.
TEST(Reselect, ChainedOverflowsMatchFullHeuristic) {
  ScratchPool pool;
  auto s = pool.acquire(1, 1);
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    Rng rng(1000 + trial);
    const std::size_t m = 2 + rng.uniform_below(15);
    const std::size_t n_ids = 2 * (m + 60) + 2;
    const TiedSpace space(n_ids, rng);
    OwnedList list(m);
    std::vector<Cand> links;  // the reference list's links with distances
    LocalId next = 2;
    // Fill by appending (statuses unknown), then overflow 60 times.
    for (std::size_t i = 0; i < m + 60; ++i, next += 2) {
      const Cand x{float(rng.uniform_below(5)), next};
      if (links.size() < m) {
        list.view().push_back(x);
        links.push_back(x);
        continue;
      }
      std::vector<Cand> all = links;
      all.push_back(x);
      std::sort(all.begin(), all.end());
      std::size_t want_kept = 0;
      const auto want = reference_select(all, m, space, &want_kept);
      reselect(list.view(), m, x, space, *s);
      const LinkList got = list.view();
      ASSERT_EQ(got.count(), m);
      EXPECT_EQ(got.kept(), want_kept) << "trial " << trial << " step " << i;
      links.clear();
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(got.ids()[j], want[j]) << "trial " << trial << " step " << i;
        links.push_back(got.link(j));
      }
    }
  }
}

}  // namespace
}  // namespace annsim::hnsw
