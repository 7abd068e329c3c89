#pragma once
/// \file topk.hpp
/// \brief Bounded max-heap collecting the k best (smallest-distance) candidates.
///
/// Every search routine in the library — brute force, HNSW, the exact tree,
/// and the master-side merge of partial results — funnels candidates through
/// TopK, so merge semantics are identical everywhere.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/types.hpp"

namespace annsim {

/// Collects the k nearest candidates seen so far.
///
/// Internally a std::make_heap max-heap on Neighbor (worst candidate at the
/// top), so push is O(log k) and worst() is O(1) — the pruning bound used by
/// tree searches.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) { ANNSIM_CHECK(k > 0); heap_.reserve(k); }

  /// Offer a candidate; keeps it only if it beats the current k-th best.
  /// Returns true when the candidate was kept.
  bool push(float dist, GlobalId id) { return push(Neighbor{dist, id}); }

  bool push(const Neighbor& n) {
    if (heap_.size() < k_) {
      heap_.push_back(n);
      std::push_heap(heap_.begin(), heap_.end());
      return true;
    }
    if (n < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = n;
      std::push_heap(heap_.begin(), heap_.end());
      return true;
    }
    return false;
  }

  /// Merge another result set (e.g. a partition's local k-NN) into this one.
  void merge(std::span<const Neighbor> other) {
    for (const auto& n : other) push(n);
  }

  /// Current pruning radius: distance of the worst kept candidate, or +inf
  /// while fewer than k candidates have been collected.
  [[nodiscard]] float worst_dist() const noexcept {
    return full() ? heap_.front().dist
                  : std::numeric_limits<float>::infinity();
  }

  [[nodiscard]] bool full() const noexcept { return heap_.size() == k_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Destructively extract results sorted by ascending distance.
  [[nodiscard]] std::vector<Neighbor> take_sorted() {
    std::sort_heap(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

  /// Non-destructive sorted copy.
  [[nodiscard]] std::vector<Neighbor> sorted() const {
    std::vector<Neighbor> out(heap_);
    std::sort(out.begin(), out.end());
    return out;
  }

  void clear() noexcept { heap_.clear(); }

 private:
  std::size_t k_;
  std::vector<Neighbor> heap_;
};

/// Merge two already-sorted k-NN result lists into a sorted list of length
/// at most k. Used by the RMA accumulate merge op (the "atomic remote
/// read-update" of §IV-C1).
[[nodiscard]] inline std::vector<Neighbor> merge_sorted_knn(
    std::span<const Neighbor> a, std::span<const Neighbor> b, std::size_t k) {
  std::vector<Neighbor> out;
  out.reserve(std::min(k, a.size() + b.size()));
  std::size_t i = 0, j = 0;
  while (out.size() < k && (i < a.size() || j < b.size())) {
    const bool take_a =
        j >= b.size() || (i < a.size() && a[i] < b[j]);
    const Neighbor& n = take_a ? a[i++] : b[j++];
    // Drop duplicate ids (a point replicated across partitions must appear
    // once in the merged result).
    if (!out.empty() && out.back().id == n.id) continue;
    out.push_back(n);
  }
  return out;
}

}  // namespace annsim
