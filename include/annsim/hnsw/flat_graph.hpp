#pragma once
/// \file flat_graph.hpp
/// \brief Read-optimized frozen HNSW adjacency: one contiguous CSR-style
/// LocalId slab with per-node/per-layer offsets and inline neighbor counts.
///
/// The mutable build-time graph holds fixed-capacity blocks with room for
/// back-links, a kept count and each link's distance, and is read under
/// per-node locks while inserts run. After construction the graph never
/// changes, so `HnswIndex::freeze` compacts it into this immutable form.
/// Beam expansion then iterates a `std::span` straight out of the slab — zero copies, zero locks, and the
/// adjacency block of the next candidate can be software-prefetched.
///
/// Slab layout (LocalId = u32 throughout):
///
///   slab_:  [0][c|n0 n1 ... n_{c-1}][c'|...] ...
///            ^   ^-- one block per (node, layer): count, then neighbors
///            +-- sentinel empty block shared by never-inserted nodes
///
///   l0_off_[v]      -> slab index of v's layer-0 block (the hot path:
///                      neighbors0(v) is two dependent loads, no branches)
///   level_[v]       -> v's top layer (-1 = not inserted)
///   upper_start_[v] -> index into upper_off_ of v's layer>=1 offsets
///   upper_off_[...] -> slab indices for layers 1..level(v), contiguous
///
/// Invariants: neighbor order inside each block is exactly the order of the
/// linked form it was frozen from (freezing never reorders), and both forms
/// are searched by the same kernel (layer_search.hpp), so flat-graph
/// searches are bit-identical to linked-graph searches by construction.
/// Every stored neighbor id and a valid entry point are below size(), and
/// the entry point sits on the top layer; read() rejects images that break
/// this, so a decoded graph is always safe to traverse.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "annsim/common/serialize.hpp"
#include "annsim/common/types.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {

class FlatGraph {
 public:
  FlatGraph() = default;

  /// Prepare for `n` nodes added in id order via add_node(); `slab_hint` is
  /// an estimate of total stored LocalIds (counts included).
  void init(std::size_t n, std::size_t slab_hint);

  /// Append the next node's adjacency: `n_layers` lists, `list(l)` returning
  /// layer l's neighbor span. Nodes must be added in increasing id order.
  template <typename ListOf>
  void add_node(std::size_t n_layers, const ListOf& list) {
    const std::size_t v = begin_node(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l) {
      const std::span<const LocalId> ids = list(l);
      std::copy(ids.begin(), ids.end(), append_block(v, l, ids.size()));
    }
  }

  /// Decode a whole graph of `n` nodes from the ANN1 wire layout: i32
  /// max_level, u32 entry point, then per node a u32 layer count and per
  /// layer a u64-length-prefixed LocalId array. Deserialization freezes
  /// directly, without materializing linked lists. Throws annsim::Error on
  /// any image a search could not traverse safely: a length past the end of
  /// the input, a neighbor id or entry point outside [0, n), or a max_level
  /// other than the highest node level.
  void read(BinaryReader& r, std::size_t n, std::size_t slab_hint = 0);

  void set_entry(LocalId entry_point, int max_level) noexcept {
    entry_point_ = entry_point;
    max_level_ = max_level;
  }

  [[nodiscard]] std::size_t size() const noexcept { return level_.size(); }
  [[nodiscard]] std::size_t n_inserted() const noexcept { return n_inserted_; }
  /// Largest neighbor-list length in the graph (sizes search scratch).
  [[nodiscard]] std::size_t max_degree() const noexcept { return max_degree_; }
  [[nodiscard]] LocalId entry_point() const noexcept { return entry_point_; }
  [[nodiscard]] int max_level() const noexcept { return max_level_; }
  [[nodiscard]] int level(LocalId v) const noexcept { return level_[v]; }

  /// Layer-0 neighbors of `v` — the beam-search hot path.
  [[nodiscard]] std::span<const LocalId> neighbors0(LocalId v) const noexcept {
    const std::uint64_t off = l0_off_[v];
    return {slab_.data() + off + 1, slab_[off]};
  }

  /// Neighbors of `v` at any layer (empty span above v's level).
  [[nodiscard]] std::span<const LocalId> neighbors(LocalId v, int layer) const noexcept {
    if (layer == 0) return neighbors0(v);
    if (layer > level_[v]) return {};
    const std::uint64_t off = upper_off_[upper_start_[v] + std::size_t(layer) - 1];
    return {slab_.data() + off + 1, slab_[off]};
  }

  /// Prefetch v's layer-0 block (count + leading neighbors).
  void prefetch0(LocalId v) const noexcept {
    simd::prefetch_line(slab_.data() + l0_off_[v]);
  }

  /// Serialize all per-node adjacency in the ANN1 wire format (the part of
  /// to_bytes() after the header), matching the mutable form byte-for-byte.
  void write_nodes(BinaryWriter& w) const;

 private:
  /// Begin a block for the next node id; returns that id.
  std::size_t begin_node(std::size_t n_layers);
  /// Append node v's block for `layer` holding `count` neighbors; returns
  /// where the neighbors go.
  LocalId* append_block(std::size_t v, std::size_t layer, std::size_t count);

  std::vector<LocalId> slab_;
  std::vector<std::uint64_t> l0_off_;
  std::vector<std::int32_t> level_;
  std::vector<std::uint64_t> upper_start_;
  std::vector<std::uint64_t> upper_off_;
  std::size_t n_inserted_ = 0;
  std::size_t max_degree_ = 0;
  LocalId entry_point_ = kInvalidLocalId;
  int max_level_ = -1;
};

}  // namespace annsim::hnsw
