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
///
/// The beam is one candidate pool kept sorted by (distance, node), each
/// entry flagged once expanded; it walks exactly the nodes Algorithm 2's
/// candidate and result heaps would, ties included (see search_layer).
/// Unvisited neighbors are gathered branch-free: every id is written and
/// the write cursor advances by VisitedSet::first_visit.

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "annsim/common/types.hpp"

namespace annsim::hnsw {

/// Candidate ordered by (search-space distance, node): a strict total order,
/// so pool contents and emission order never depend on insertion order.
/// `expanded` is the beam pool's bookkeeping and takes no part in the order.
struct Cand {
  float dist;
  LocalId node;
  bool expanded = false;
  friend bool operator<(const Cand& a, const Cand& b) noexcept {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  }
};

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

  /// Marks `v` visited; 1 if this is its first visit this epoch, else 0.
  /// Branch-free, so a gather can write unconditionally and advance by it.
  std::size_t first_visit(LocalId v) noexcept {
    const bool fresh = stamp_[v] != epoch_;
    stamp_[v] = epoch_;
    return fresh;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Per-search working memory: the visited set plus every buffer the beam
/// search and an insert's neighbor selection touch, so a warmed-up search
/// allocates nothing beyond its returned result and a warmed-up insert
/// nothing at all.
struct SearchScratch {
  VisitedSet visited;
  std::vector<LocalId> ids;     ///< unvisited-neighbor gather
  std::vector<float> dists;     ///< batched distances
  std::vector<Cand> best;       ///< the sorted candidate pool: the result
  std::vector<LocalId> links;   ///< a neighbor list copied under its lock
  // Insert only (HnswIndex::insert, neighbor_select.hpp).
  std::vector<LocalId> entries;  ///< the next layer's entry points
  std::vector<Cand> neighbors;   ///< the new node's selected neighbors
  std::vector<Cand> cands;       ///< an overfull list's sorted candidates
  std::vector<Cand> kept;        ///< an overfull list, re-selected
  std::vector<Cand> pruned;      ///< selection's pruned candidates
  std::vector<Cand> fresh;       ///< re-selection's newly kept entries
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

/// Inserts `c` into the ascending pool `pool`, whose first `ef` entries are
/// the beam, and returns its position. Entries past the beam survive only
/// while their distance ties the beam's worst (see search_layer).
[[gnu::always_inline]] inline std::size_t pool_insert(std::vector<Cand>& pool,
                                                      std::size_t ef, Cand c) {
  const auto at = std::upper_bound(pool.begin(), pool.end(), c);
  const std::size_t pos = std::size_t(at - pool.begin());
  pool.insert(at, c);
  if (pool.size() > ef) {
    const float worst = pool[ef - 1].dist;
    while (pool.back().dist > worst) pool.pop_back();
  }
  return pos;
}

/// Beam search of width `ef` (>= 1) within one layer from `entries`. Leaves
/// the best `ef` candidates in `s.best`, ascending by (distance, node), in
/// search-space distances. `s.ids` must hold the longest neighbor list `adj`
/// returns.
///
/// The pool's first `ef` entries are the result, and the next candidate to
/// expand is the first entry not yet expanded. It expands the same nodes in
/// the same order as Algorithm 2's candidate min-heap and bounded result
/// max-heap, ties included:
///  * entry points go in ungated; a neighbor only if the beam is short or
///    it is strictly closer than the beam's worst;
///  * a candidate pushed past the beam stays expandable while its distance
///    equals the new worst (Algorithm 2 stops only once its nearest
///    candidate is strictly farther than the worst result), and is dropped
///    once the worst falls below it.
template <typename Adj, typename DistBatch, typename Prefetch>
void search_layer(const Adj& adj, const DistBatch& dist_batch,
                  const Prefetch& prefetch, std::span<const LocalId> entries,
                  int layer, std::size_t ef, SearchScratch& s) {
  VisitedSet& visited = s.visited;
  visited.new_epoch();
  auto& pool = s.best;
  pool.clear();
  LocalId* const ids = s.ids.data();
  float* const dists = s.dists.data();

  // Entry points, scored in gather-sized batches.
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t m = 0;
    for (; i < entries.size() && m < s.ids.size(); ++i) {
      ids[m] = entries[i];
      m += visited.first_visit(entries[i]);
    }
    if (m == 0) continue;
    dist_batch(ids, m, dists);
    for (std::size_t j = 0; j < m; ++j) {
      pool_insert(pool, ef, {dists[j], ids[j]});
    }
  }

  std::size_t cursor = 0;  // first unexpanded pool entry
  while (cursor < pool.size()) {
    pool[cursor].expanded = true;
    // Gather unvisited neighbors for one batched distance call.
    std::size_t m = 0;
    for (LocalId nb : adj(pool[cursor].node, layer)) {
      ids[m] = nb;
      m += visited.first_visit(nb);
    }
    // The next unexpanded entry is the nearest one admitted now, or lies
    // past the cursor.
    std::size_t next = cursor + 1;
    if (m != 0) {
      dist_batch(ids, m, dists);
      for (std::size_t i = 0; i < m; ++i) {
        const float d = dists[i];
        if (pool.size() < ef || d < pool[ef - 1].dist) {
          next = std::min(next, pool_insert(pool, ef, {d, ids[i]}));
        }
      }
    }
    while (next < pool.size() && pool[next].expanded) ++next;
    cursor = next;
    // Warm the next expansion.
    if (cursor < pool.size()) prefetch(pool[cursor].node);
  }
  if (pool.size() > ef) pool.resize(ef);
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
/// layer 0. Leaves the layer-0 beam in `s.best`, ascending.
template <typename Adj, typename DistBatch, typename Prefetch>
void beam_search(const Adj& adj, const DistBatch& dist_batch,
                 const Prefetch& prefetch, LocalId entry, int top_layer,
                 std::size_t ef, SearchScratch& s) {
  const LocalId ep =
      greedy_descent(adj, dist_batch, prefetch, entry, top_layer, 0, s);
  search_layer(adj, dist_batch, prefetch, {&ep, 1}, 0, ef, s);
}

}  // namespace annsim::hnsw
