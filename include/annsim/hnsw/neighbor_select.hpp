#pragma once
/// \file neighbor_select.hpp
/// \brief HNSW neighbor selection (Algorithm 4 of the HNSW paper, the
/// "heuristic" with keepPrunedConnections) over the linked graph's lists:
/// in full for a new node's list, and incrementally when a back-link
/// overflows a list.
///
/// Every link of the linked graph keeps its search-space distance to the
/// list's owner (LinkList), so selecting over a list never recomputes an
/// owner distance. Selection emits its kept candidates ascending, then
/// backfills with pruned ones ascending; a list stored that way also
/// records how many leading entries were kept.
///
/// Exactness of the incremental re-selection. The heuristic's verdict on a
/// candidate depends only on the nearer candidates it kept. Re-selecting a
/// full list of m links plus one new link drops exactly one candidate:
/// either the farthest, when the first m were all kept, or the farthest
/// pruned one. Neither was kept, so every remaining entry's kept/pruned
/// status is still the heuristic's verdict over the remaining set. When the
/// next back-link x overflows the list, walking the m + 1 candidates
/// nearest-first therefore:
///  * keeps every verdict before x, untested;
///  * tests x against the entries kept before it;
///  * re-tests a later kept entry only against the entries newly kept (x,
///    and pruned entries that turned kept): the entries it was already
///    tested against are a superset of the rest of its kept predecessors;
///  * keeps a later pruned entry pruned untested unless some entry before it
///    turned from kept to pruned, since its pruning witness is then still
///    kept; otherwise it is re-tested against everything kept before it.
/// A list whose statuses are unknown (filled by appending back-links) gets
/// the full heuristic over its sorted links instead.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "annsim/common/types.hpp"
#include "annsim/hnsw/layer_search.hpp"

namespace annsim::hnsw {

/// One neighbor list of the linked graph, viewed in place: a two-word
/// header (link count, kept count) followed by the neighbor ids, and a
/// parallel array of each link's search-space distance to the list's owner.
/// A kept count k > 0 means the list is stored as selection emits it, its
/// first k entries kept; 0 means the statuses are unknown.
struct LinkList {
  LocalId* head;  ///< [count, kept, ids...]
  float* dists;

  [[nodiscard]] std::uint32_t count() const noexcept { return head[0]; }
  [[nodiscard]] std::uint32_t kept() const noexcept { return head[1]; }
  [[nodiscard]] std::span<const LocalId> ids() const noexcept {
    return {head + 2, head[0]};
  }
  [[nodiscard]] Cand link(std::size_t i) const noexcept {
    return {dists[i], head[2 + i]};
  }

  /// Appends one link; the list's statuses become unknown.
  void push_back(Cand c) noexcept {
    head[2 + head[0]] = c.node;
    dists[head[0]] = c.dist;
    ++head[0];
    head[1] = 0;
  }

  /// Replaces the list with selection's output, the first `n_kept` kept.
  void assign(std::span<const Cand> links, std::size_t n_kept) noexcept {
    for (std::size_t i = 0; i < links.size(); ++i) {
      head[2 + i] = links[i].node;
      dists[i] = links[i].dist;
    }
    head[0] = std::uint32_t(links.size());
    head[1] = std::uint32_t(n_kept);
  }
};

/// True when `c` is nearer some entry of `kept` than the owner (c.dist).
/// `pair_dist(a, b)` is the search-space distance between nodes a and b.
template <typename PairDist>
bool closer_to_kept(const Cand& c, std::span<const Cand> kept,
                    const PairDist& pair_dist) {
  return std::any_of(kept.begin(), kept.end(), [&](const Cand& s) {
    return pair_dist(c.node, s.node) < c.dist;
  });
}

/// Appends pruned candidates to `out` (the kept ones) until it holds `m`
/// or the pruned run out: keepPrunedConnections.
inline void backfill(std::span<const Cand> pruned, std::size_t m,
                     std::vector<Cand>& out) {
  for (const Cand& p : pruned) {
    if (out.size() >= m) break;
    out.push_back(p);
  }
}

/// The heuristic over `candidates`, ascending by (dist, node) with each
/// dist the candidate's distance to the owner: scan nearest-first, keep a
/// candidate only if no already-kept one is nearer to it than the owner,
/// stop once `m` are kept, then backfill with the pruned. Writes at most `m`
/// links to `out`, kept first; `pruned` is working memory. Returns the
/// number kept.
template <typename PairDist>
std::size_t select_neighbors(std::span<const Cand> candidates, std::size_t m,
                             const PairDist& pair_dist, std::vector<Cand>& out,
                             std::vector<Cand>& pruned) {
  out.clear();
  pruned.clear();
  for (const Cand& c : candidates) {
    if (out.size() >= m) break;
    (closer_to_kept(c, out, pair_dist) ? pruned : out).push_back(c);
  }
  const std::size_t n_kept = out.size();
  backfill(pruned, m, out);
  return n_kept;
}

/// Adds link `x` to the full list `list` (m links) and re-selects it in
/// place: the list becomes select_neighbors over its m links plus `x`,
/// sorted, stored kept-first with its kept count. Incremental when the
/// list's statuses are known (see the file comment); uses `s.cands`,
/// `s.kept`, `s.pruned` and `s.fresh`.
template <typename PairDist>
void reselect(LinkList list, std::size_t m, Cand x, const PairDist& pair_dist,
              SearchScratch& s) {
  auto& out = s.kept;
  std::size_t n_kept;
  const std::size_t k = list.kept();
  if (k == 0) {
    auto& cands = s.cands;
    cands.clear();
    for (std::size_t i = 0; i < m; ++i) cands.push_back(list.link(i));
    cands.push_back(x);
    std::sort(cands.begin(), cands.end());
    n_kept = select_neighbors(cands, m, pair_dist, out, s.pruned);
  } else {
    // Merge the kept run [0, k), the pruned run [k, m) and x nearest-first,
    // carrying each entry's old status.
    auto& pruned = s.pruned;
    auto& fresh = s.fresh;  // entries kept now but not before: x and flips
    out.clear();
    pruned.clear();
    fresh.clear();
    std::size_t ki = 0;
    std::size_t pi = k;
    bool x_pending = true;
    bool demoted = false;  // an entry already walked turned kept -> pruned
    enum class Was { kKept, kPruned, kNew };
    while (out.size() < m) {
      Cand c{};
      Was was = Was::kNew;
      bool any = false;
      const auto offer = [&](const Cand& e, Was from) {
        if (!any || e < c) {
          c = e;
          was = from;
          any = true;
        }
      };
      if (ki < k) offer(list.link(ki), Was::kKept);
      if (pi < m) offer(list.link(pi), Was::kPruned);
      if (x_pending) offer(x, Was::kNew);
      if (!any) break;
      bool keep = false;
      switch (was) {
        case Was::kKept:
          ++ki;
          keep = !closer_to_kept(c, fresh, pair_dist);
          break;
        case Was::kPruned:
          ++pi;
          keep = demoted && !closer_to_kept(c, out, pair_dist);
          break;
        case Was::kNew:
          x_pending = false;
          keep = !closer_to_kept(c, out, pair_dist);
          break;
      }
      if (keep) {
        out.push_back(c);
        if (was != Was::kKept) fresh.push_back(c);
      } else {
        pruned.push_back(c);
        demoted = demoted || was == Was::kKept;
      }
    }
    n_kept = out.size();
    backfill(pruned, m, out);
  }
  list.assign(out, n_kept);
}

}  // namespace annsim::hnsw
