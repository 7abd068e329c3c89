#pragma once
/// \file layer_search.hpp
/// \brief The HNSW layer search (Algorithm 2 of the HNSW paper) and its
/// working memory. Every HNSW-shaped beam search in the library runs through
/// this one kernel: inserts and searches on the linked graph, searches on
/// the frozen FlatGraph, and the SQ8 tier's searches over code rows.
///
/// Callers differ in three things only, each passed in as a callable:
///  * adjacency — `adj(node, layer)` returns the node's neighbor span at
///    `layer` (empty above its level). The span must stay valid until the
///    next `adj` call;
///  * batched distance — `dist_batch(ids, m, out)` writes the search-space
///    distances (order-preserving; squared L2 for kL2) of the `m` nodes in
///    `ids`. Entry points go through the same call, so one kernel scores
///    every candidate;
///  * prefetch — `prefetch(node)` warms whatever the next expansion of
///    `node` will read (adjacency block, code row), or does nothing.

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "annsim/common/types.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {

/// Candidate ordered by (search-space distance, node): a strict total order,
/// so heap contents and emission order never depend on heap layout.
struct Cand {
  float dist;
  LocalId node;
  friend bool operator<(const Cand& a, const Cand& b) noexcept {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  }
  friend bool operator>(const Cand& a, const Cand& b) noexcept { return b < a; }
};

// Heaps over pooled vectors (std heap algorithms), so their storage is
// reused across searches. Forced inline: they run once per candidate in the
// beam loop, and the compiler leaves header functions with this many call
// sites out of line.

[[gnu::always_inline]] inline void min_push(std::vector<Cand>& h, Cand c) {
  h.push_back(c);
  std::push_heap(h.begin(), h.end(), std::greater<>{});
}

[[gnu::always_inline]] inline Cand min_pop(std::vector<Cand>& h) {
  std::pop_heap(h.begin(), h.end(), std::greater<>{});
  const Cand c = h.back();
  h.pop_back();
  return c;
}

[[gnu::always_inline]] inline void max_push(std::vector<Cand>& h, Cand c) {
  h.push_back(c);
  std::push_heap(h.begin(), h.end());
}

[[gnu::always_inline]] inline void max_pop(std::vector<Cand>& h) {
  std::pop_heap(h.begin(), h.end());
  h.pop_back();
}

/// Epoch-stamped visited set, reusable across searches without clearing.
class VisitedSet {
 public:
  void resize(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
  }

  void new_epoch() noexcept {
    if (++epoch_ == 0) {  // wrapped: reset all stamps
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  bool test_and_set(LocalId v) noexcept {
    if (stamp_[v] == epoch_) return true;
    stamp_[v] = epoch_;
    return false;
  }

  void prefetch(LocalId v) const noexcept { simd::prefetch_line(&stamp_[v]); }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Per-search working memory: the visited set plus every buffer the beam
/// search touches, so a warmed-up search allocates nothing beyond its
/// returned result.
struct SearchScratch {
  VisitedSet visited;
  std::vector<LocalId> ids;     ///< unvisited-neighbor gather
  std::vector<float> dists;     ///< batched distances
  std::vector<Cand> frontier;   ///< min-heap storage
  std::vector<Cand> best;       ///< max-heap storage: the layer's result
  std::vector<LocalId> links;   ///< a neighbor list copied under its lock
};

/// Pool of SearchScratch so concurrent searches don't allocate per query.
class ScratchPool {
 public:
  /// A scratch whose visited set covers `n` nodes and whose gather buffers
  /// hold at least `lanes` entries (the longest neighbor list searched) and
  /// never fewer than one, which entry-point batches need.
  std::unique_ptr<SearchScratch> acquire(std::size_t n, std::size_t lanes) {
    lanes = std::max<std::size_t>(lanes, 1);
    std::unique_ptr<SearchScratch> s;
    {
      std::lock_guard lk(mu_);
      if (!free_.empty()) {
        s = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!s) s = std::make_unique<SearchScratch>();
    s->visited.resize(n);
    if (s->ids.size() < lanes) {
      s->ids.resize(lanes);
      s->dists.resize(lanes);
    }
    return s;
  }

  void release(std::unique_ptr<SearchScratch> s) {
    std::lock_guard lk(mu_);
    free_.push_back(std::move(s));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SearchScratch>> free_;
};

/// Beam search of width `ef` within one layer from `entries`. Leaves the
/// best `ef` candidates in `s.best` as a max-heap (search-space distances).
/// `s.ids` must hold the longest neighbor list `adj` returns.
template <typename Adj, typename DistBatch, typename Prefetch>
void search_layer(const Adj& adj, const DistBatch& dist_batch,
                  const Prefetch& prefetch, std::span<const LocalId> entries,
                  int layer, std::size_t ef, SearchScratch& s) {
  VisitedSet& visited = s.visited;
  visited.new_epoch();
  auto& frontier = s.frontier;
  auto& best = s.best;
  frontier.clear();
  best.clear();

  // Entry points, scored in gather-sized batches; each one enters both heaps.
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t m = 0;
    for (; i < entries.size() && m < s.ids.size(); ++i) {
      if (!visited.test_and_set(entries[i])) s.ids[m++] = entries[i];
    }
    if (m == 0) continue;
    dist_batch(s.ids.data(), m, s.dists.data());
    for (std::size_t j = 0; j < m; ++j) {
      min_push(frontier, {s.dists[j], s.ids[j]});
      max_push(best, {s.dists[j], s.ids[j]});
      if (best.size() > ef) max_pop(best);
    }
  }

  while (!frontier.empty()) {
    if (best.size() >= ef && frontier.front().dist > best.front().dist) break;
    const Cand c = min_pop(frontier);

    const std::span<const LocalId> neigh = adj(c.node, layer);
    // Pass 1: prefetch the visited stamps for the whole adjacency list.
    for (LocalId nb : neigh) visited.prefetch(nb);
    // Pass 2: gather unvisited neighbors for one batched distance call.
    std::size_t m = 0;
    for (LocalId nb : neigh) {
      if (!visited.test_and_set(nb)) s.ids[m++] = nb;
    }
    if (m == 0) continue;
    dist_batch(s.ids.data(), m, s.dists.data());
    for (std::size_t i = 0; i < m; ++i) {
      const float d = s.dists[i];
      if (best.size() < ef || d < best.front().dist) {
        min_push(frontier, {d, s.ids[i]});
        max_push(best, {d, s.ids[i]});
        if (best.size() > ef) max_pop(best);
      }
    }
    // Warm the next expansion while the heaps settle.
    if (!frontier.empty()) prefetch(frontier.front().node);
  }
}

/// Greedy descent (beam 1) from `entry` on `top_layer` down to the layer
/// above `stop_layer`; returns the entry point for `stop_layer`.
template <typename Adj, typename DistBatch, typename Prefetch>
LocalId greedy_descent(const Adj& adj, const DistBatch& dist_batch,
                       const Prefetch& prefetch, LocalId entry, int top_layer,
                       int stop_layer, SearchScratch& s) {
  for (int layer = top_layer; layer > stop_layer; --layer) {
    search_layer(adj, dist_batch, prefetch, {&entry, 1}, layer, 1, s);
    if (!s.best.empty()) entry = s.best.front().node;
  }
  return entry;
}

/// Full k-NN descent: greedy through the upper layers, then beam `ef` on
/// layer 0. Leaves the layer-0 beam in `s.best` as a max-heap.
template <typename Adj, typename DistBatch, typename Prefetch>
void beam_search(const Adj& adj, const DistBatch& dist_batch,
                 const Prefetch& prefetch, LocalId entry, int top_layer,
                 std::size_t ef, SearchScratch& s) {
  const LocalId ep =
      greedy_descent(adj, dist_batch, prefetch, entry, top_layer, 0, s);
  search_layer(adj, dist_batch, prefetch, {&ep, 1}, 0, ef, s);
}

}  // namespace annsim::hnsw
