#include "annsim/hnsw/flat_graph.hpp"

#include <algorithm>

#include "annsim/common/error.hpp"

namespace annsim::hnsw {

void FlatGraph::init(std::size_t n, std::size_t slab_hint) {
  slab_.clear();
  slab_.reserve(slab_hint + 1);
  slab_.push_back(0);  // shared sentinel block: never-inserted nodes point here
  l0_off_.clear();
  l0_off_.reserve(n);
  level_.clear();
  level_.reserve(n);
  upper_start_.clear();
  upper_start_.reserve(n);
  upper_off_.clear();
  n_inserted_ = 0;
  max_degree_ = 0;
  entry_point_ = kInvalidLocalId;
  max_level_ = -1;
}

std::size_t FlatGraph::begin_node(std::size_t n_layers) {
  const std::size_t v = level_.size();
  level_.push_back(std::int32_t(n_layers) - 1);
  l0_off_.push_back(0);  // sentinel unless a layer-0 block is appended below
  upper_start_.push_back(upper_off_.size());
  if (n_layers > 0) ++n_inserted_;
  return v;
}

LocalId* FlatGraph::append_block(std::size_t v, std::size_t layer,
                                 std::size_t count) {
  const std::uint64_t off = slab_.size();
  if (layer == 0) {
    l0_off_[v] = off;
  } else {
    upper_off_.push_back(off);
  }
  slab_.resize(off + 1 + count);
  slab_[off] = LocalId(count);
  max_degree_ = std::max(max_degree_, count);
  return slab_.data() + off + 1;
}

void FlatGraph::read(BinaryReader& r, std::size_t n, std::size_t slab_hint) {
  const auto max_level = r.read<std::int32_t>();
  const auto entry = r.read<LocalId>();
  init(n, slab_hint);
  int highest = -1;
  for (std::size_t v = 0; v < n; ++v) {
    // Every length is checked against the bytes left before anything grows.
    const auto n_layers = r.read<std::uint32_t>();
    ANNSIM_CHECK_MSG(n_layers <= r.remaining() / sizeof(std::uint64_t),
                     "graph image: node " << v << " claims " << n_layers
                                          << " layers past the end");
    begin_node(n_layers);
    highest = std::max(highest, level_[v]);
    for (std::uint32_t l = 0; l < n_layers; ++l) {
      const auto count = r.read<std::uint64_t>();
      ANNSIM_CHECK_MSG(count <= r.remaining() / sizeof(LocalId),
                       "graph image: node " << v << " claims " << count
                                            << " neighbors past the end");
      const std::span<LocalId> block(append_block(v, l, count), count);
      r.read_into(block);
      for (LocalId nb : block) {
        ANNSIM_CHECK_MSG(nb < n, "graph image: node " << v << " links to "
                                                      << nb << " of " << n);
      }
    }
  }
  ANNSIM_CHECK_MSG(max_level == highest, "graph image: max_level "
                                             << max_level << " but the highest "
                                             << "node level is " << highest);
  // The entry point is invalid only in a graph with no node inserted, and
  // otherwise sits on the top layer.
  ANNSIM_CHECK_MSG(entry == kInvalidLocalId
                       ? n_inserted_ == 0
                       : entry < n && level_[entry] == max_level,
                   "graph image: bad entry point " << entry);
  set_entry(entry, max_level);
}

void FlatGraph::write_nodes(BinaryWriter& w) const {
  for (std::size_t v = 0; v < size(); ++v) {
    const std::uint32_t n_layers = std::uint32_t(level_[v] + 1);
    w.write(n_layers);
    for (std::uint32_t l = 0; l < n_layers; ++l) {
      w.write_span(neighbors(LocalId(v), int(l)));
    }
  }
}

}  // namespace annsim::hnsw
