#include "annsim/hnsw/hnsw_index.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/hnsw/flat_graph.hpp"
#include "annsim/hnsw/layer_search.hpp"

namespace annsim::hnsw {

namespace {

/// One node of the mutable linked graph: layers[l] = neighbor list (layer 0
/// capacity 2M, others M).
struct Node {
  std::vector<std::vector<LocalId>> layers;  // size = level + 1
  bool inserted = false;
};

/// Linked-graph adjacency once the graph is complete: no link can change
/// again, so lists are read in place, zero-copy and lock-free.
struct InPlaceLinks {
  const std::vector<Node>& nodes;
  std::span<const LocalId> operator()(LocalId v, int layer) const {
    const auto& node = nodes[v];
    if (std::size_t(layer) >= node.layers.size()) return {};
    return node.layers[layer];
  }
};

/// Linked-graph adjacency while inserts may run: the list is copied under
/// the node's lock into a reused buffer (capacity retained across
/// expansions, so the steady-state cost is a memcpy).
struct LockedLinks {
  const std::vector<Node>& nodes;
  std::mutex* locks;
  std::vector<LocalId>& copy;
  std::span<const LocalId> operator()(LocalId v, int layer) const {
    std::lock_guard lk(locks[v]);
    const auto& node = nodes[v];
    if (std::size_t(layer) >= node.layers.size()) return {};
    copy.assign(node.layers[layer].begin(), node.layers[layer].end());
    return copy;
  }
};

constexpr auto kNoPrefetch = [](LocalId) noexcept {};

/// Batched search-space distances from `query` to dataset rows.
auto row_dists(const data::Dataset& data, const simd::DistanceComputer& dist,
               const float* query) {
  return [&data, &dist, query](const LocalId* ids, std::size_t m, float* out) {
    dist.search_dist_batch(query, data.row(0), data.stride(), ids, m, out);
  };
}

/// Heuristic neighbor selection (Algorithm 4 of the HNSW paper): scan the
/// ascending `candidates` nearest-first, keep one only if it is closer to the
/// query than to every already-kept neighbor; backfill with pruned
/// candidates. Writes at most `m` ids to `kept`; `pruned` is working memory.
/// Comparisons happen in search space (order-identical to ranking space).
void select_neighbors(const data::Dataset& data,
                      const simd::DistanceComputer& dist,
                      std::span<const Cand> candidates, std::size_t m,
                      std::vector<LocalId>& kept,
                      std::vector<LocalId>& pruned) {
  kept.clear();
  pruned.clear();
  for (const Cand& c : candidates) {
    if (kept.size() >= m) break;
    bool closer_to_kept = false;
    for (LocalId s : kept) {
      if (dist.search_dist(data.row(c.node), data.row(s)) < c.dist) {
        closer_to_kept = true;
        break;
      }
    }
    if (closer_to_kept) {
      pruned.push_back(c.node);
    } else {
      kept.push_back(c.node);
    }
  }
  for (LocalId p : pruned) {
    if (kept.size() >= m) break;
    kept.push_back(p);  // keepPrunedConnections
  }
}

}  // namespace

struct HnswIndex::Impl {
  Impl(std::size_t n, bool mutable_graph)
      : nodes(mutable_graph ? n : 0),
        locks(mutable_graph ? std::make_unique<std::mutex[]>(n) : nullptr) {}

  /// The linked graph, one Node per dataset row. Populated only while the
  /// index is mutable; freeze() releases it.
  std::vector<Node> nodes;
  std::unique_ptr<std::mutex[]> locks;
  mutable ScratchPool scratch;

  mutable std::mutex entry_mu;
  LocalId entry_point = kInvalidLocalId;
  int max_level = -1;
  std::atomic<std::size_t> n_inserted{0};

  /// Read-optimized representation; valid once `frozen` is true.
  FlatGraph flat;
  std::atomic<bool> frozen{false};
};

HnswIndex::HnswIndex(const data::Dataset* data, HnswParams params)
    : data_(data),
      params_(params),
      impl_(std::make_unique<Impl>(data->size(), /*mutable_graph=*/true)) {
  ANNSIM_CHECK(data_ != nullptr);
  ANNSIM_CHECK(params_.M >= 2);
  ANNSIM_CHECK(params_.ef_construction >= params_.M);
  if (params_.level_mult <= 0.0) {
    params_.level_mult = 1.0 / std::log(double(params_.M));
  }
}

HnswIndex::HnswIndex(const data::Dataset* data, HnswParams params,
                     std::unique_ptr<Impl> impl)
    : data_(data), params_(params), impl_(std::move(impl)) {}

HnswIndex::~HnswIndex() = default;
HnswIndex::HnswIndex(HnswIndex&&) noexcept = default;
HnswIndex& HnswIndex::operator=(HnswIndex&&) noexcept = default;

std::size_t HnswIndex::size() const noexcept {
  return impl_->n_inserted.load(std::memory_order_relaxed);
}

bool HnswIndex::is_frozen() const noexcept {
  return impl_->frozen.load(std::memory_order_acquire);
}

const FlatGraph& HnswIndex::flat_graph() const {
  ANNSIM_CHECK_MSG(is_frozen(),
                   "HnswIndex::flat_graph: index is not frozen yet");
  return impl_->flat;
}

void HnswIndex::insert(LocalId node) {
  ANNSIM_CHECK(node < data_->size());
  Impl& im = *impl_;
  if (im.frozen.load(std::memory_order_acquire)) [[unlikely]] {
    std::ostringstream os;
    os << "HnswIndex::insert(" << node << "): index is frozen (read-only "
       << "FlatGraph form, " << im.n_inserted.load(std::memory_order_acquire)
       << " nodes); inserts are only legal in the mutable linked form";
    throw FrozenIndexError(os.str());
  }
  ANNSIM_CHECK_MSG(!im.nodes[node].inserted, "node inserted twice: " << node);

  const simd::DistanceComputer dist(params_.metric, data_->dim());
  const float* qv = data_->row(node);

  // Level assignment: floor(-ln(U) * mL), derived deterministically from the
  // seed and the node id so parallel builds are reproducible.
  Rng rng = Rng(params_.seed).split(node);
  double u = 0.0;
  while (u == 0.0) u = rng.uniform();
  const int level = int(-std::log(u) * params_.level_mult);

  // The node's own adjacency, each list at full capacity (2M on layer 0, M
  // above) so neither selection nor later back-links reallocate it: these
  // are the only allocations an insert makes once its scratch is warm.
  {
    std::lock_guard lk(im.locks[node]);
    auto& layers = im.nodes[node].layers;
    layers.resize(std::size_t(level) + 1);
    for (std::size_t l = 0; l < layers.size(); ++l) {
      layers[l].reserve(l == 0 ? 2 * params_.M : params_.M);
    }
  }

  // Snapshot the entry point / top level.
  LocalId entry;
  int top_level;
  {
    std::lock_guard lk(im.entry_mu);
    entry = im.entry_point;
    top_level = im.max_level;
    if (entry == kInvalidLocalId) {
      // First node becomes the entry point.
      im.entry_point = node;
      im.max_level = level;
      im.nodes[node].inserted = true;
      im.n_inserted.fetch_add(1, std::memory_order_release);
      return;
    }
  }

  // Linked lists hold at most 2M ids (layer 0), which sizes the gather.
  auto scratch = im.scratch.acquire(data_->size(), 2 * params_.M);
  SearchScratch& s = *scratch;
  const LockedLinks adj{im.nodes, im.locks.get(), s.links};
  const auto dist_batch = row_dists(*data_, dist, qv);

  // Greedy descent through layers above the node's level.
  s.entries.assign(1, greedy_descent(adj, dist_batch, kNoPrefetch, entry,
                                     top_level, level, s));

  // Connect at each layer from min(level, top_level) down to 0.
  for (int layer = std::min(level, top_level); layer >= 0; --layer) {
    search_layer(adj, dist_batch, kNoPrefetch, s.entries, layer,
                 params_.ef_construction, s);
    const auto& candidates = s.best;  // ascending
    const std::size_t m_layer = layer == 0 ? params_.M * 2 : params_.M;
    select_neighbors(*data_, dist, candidates, params_.M, s.neighbors,
                     s.pruned);

    {
      std::lock_guard lk(im.locks[node]);
      im.nodes[node].layers[layer].assign(s.neighbors.begin(),
                                          s.neighbors.end());
    }

    // Back-links, shrinking the neighbor's list when it overflows.
    for (LocalId nb : s.neighbors) {
      std::lock_guard lk(im.locks[nb]);
      auto& links = im.nodes[nb].layers[layer];
      if (links.size() < m_layer) {
        links.push_back(node);
      } else {
        auto& cands = s.cands;
        cands.clear();
        const float* nbv = data_->row(nb);
        cands.push_back({dist.search_dist(nbv, qv), node});
        for (LocalId x : links) {
          cands.push_back({dist.search_dist(nbv, data_->row(x)), x});
        }
        std::sort(cands.begin(), cands.end());  // ascending distance
        select_neighbors(*data_, dist, cands, m_layer, s.kept, s.pruned);
        links.assign(s.kept.begin(), s.kept.end());
      }
    }

    // Next layer starts from this layer's candidates, farthest first.
    s.entries.clear();
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      s.entries.push_back(it->node);
    }
  }

  {
    std::lock_guard lk(im.entry_mu);
    if (level > im.max_level) {
      im.max_level = level;
      im.entry_point = node;
    }
  }
  {
    std::lock_guard lk(im.locks[node]);
    im.nodes[node].inserted = true;
  }
  // Release so a searcher that observes the final count (acquire) sees every
  // link this insert wrote and may then read the graph without locks.
  im.n_inserted.fetch_add(1, std::memory_order_release);
  im.scratch.release(std::move(scratch));
}

void HnswIndex::build(ThreadPool* pool) {
  const std::size_t n = data_->size();
  if (n == 0) {
    freeze();
    return;
  }
  if (pool != nullptr && pool->size() > 1) {
    // Seed the graph with one node to fix the entry point, then parallelize.
    insert(0);
    pool->parallel_for(1, n, [this](std::size_t i) { insert(LocalId(i)); });
  } else {
    for (std::size_t i = 0; i < n; ++i) insert(LocalId(i));
  }
  freeze();
}

void HnswIndex::freeze() {
  Impl& im = *impl_;
  if (im.frozen.load(std::memory_order_acquire)) return;

  std::size_t slab_hint = 0;
  for (const auto& node : im.nodes) {
    for (const auto& layer : node.layers) slab_hint += 1 + layer.size();
  }
  FlatGraph g;
  g.init(im.nodes.size(), slab_hint);
  for (const auto& node : im.nodes) {
    g.add_node(std::span<const std::vector<LocalId>>(node.layers));
  }
  g.set_entry(im.entry_point, im.max_level);
  im.flat = std::move(g);

  // Drop the mutable linked form; the flat graph is now the only
  // representation (inserts are rejected from here on).
  im.nodes.clear();
  im.nodes.shrink_to_fit();
  im.frozen.store(true, std::memory_order_release);
}

std::vector<Neighbor> HnswIndex::search(const float* query, std::size_t k,
                                        std::size_t ef) const {
  ANNSIM_CHECK(k > 0);
  const Impl& im = *impl_;
  if (ef == 0) ef = params_.ef_search;
  ef = std::max(ef, k);
  const simd::DistanceComputer dist(params_.metric, data_->dim());
  const auto dist_batch = row_dists(*data_, dist, query);

  std::unique_ptr<SearchScratch> scratch;
  if (im.frozen.load(std::memory_order_acquire)) {
    // Frozen graph: adjacency spans straight out of the slab, the next
    // candidate's block prefetched.
    const FlatGraph& g = im.flat;
    if (g.entry_point() == kInvalidLocalId) return {};
    scratch = im.scratch.acquire(data_->size(), g.max_degree());
    beam_search([&g](LocalId v, int layer) { return g.neighbors(v, layer); },
                dist_batch, [&g](LocalId v) { g.prefetch0(v); },
                g.entry_point(), g.max_level(), ef, *scratch);
  } else {
    LocalId entry;
    int top_level;
    {
      // Snapshot under the lock: concurrent inserts mutate both fields.
      std::lock_guard lk(im.entry_mu);
      entry = im.entry_point;
      top_level = im.max_level;
    }
    if (entry == kInvalidLocalId) return {};
    scratch = im.scratch.acquire(data_->size(), 2 * params_.M);
    // Once every row is inserted no link can change again (rows insert
    // exactly once); the acquire load pairs with the inserters' release
    // increments, so the lists may be read in place.
    if (im.n_inserted.load(std::memory_order_acquire) == data_->size()) {
      beam_search(InPlaceLinks{im.nodes}, dist_batch, kNoPrefetch, entry,
                  top_level, ef, *scratch);
    } else {
      beam_search(LockedLinks{im.nodes, im.locks.get(), scratch->links},
                  dist_batch, kNoPrefetch, entry, top_level, ef, *scratch);
    }
  }

  const auto& best = scratch->best;  // ascending (dist, node)
  std::vector<Neighbor> out;
  out.reserve(std::min(k, best.size()));
  for (std::size_t i = 0; i < best.size() && out.size() < k; ++i) {
    out.push_back({dist.to_ranking(best[i].dist), data_->id(best[i].node)});
  }
  im.scratch.release(std::move(scratch));
  return out;
}

data::KnnResults HnswIndex::search_batch(const data::Dataset& queries,
                                         std::size_t k, std::size_t ef,
                                         ThreadPool* pool) const {
  ANNSIM_CHECK(queries.dim() == data_->dim());
  data::KnnResults results(queries.size());
  auto run = [&](std::size_t q) { results[q] = search(queries.row(q), k, ef); };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, queries.size(), run);
  } else {
    for (std::size_t q = 0; q < queries.size(); ++q) run(q);
  }
  return results;
}

HnswStats HnswIndex::stats() const {
  const Impl& im = *impl_;
  HnswStats s;
  s.n_nodes = size();
  s.max_level = im.max_level;
  s.nodes_per_level.assign(std::size_t(im.max_level + 1), 0);
  std::size_t deg0 = 0, n0 = 0;
  if (im.frozen.load(std::memory_order_acquire)) {
    const FlatGraph& g = im.flat;
    for (LocalId v = 0; v < LocalId(g.size()); ++v) {
      const int level = g.level(v);
      if (level < 0) continue;
      for (int l = 0; l <= level; ++l) {
        if (std::size_t(l) < s.nodes_per_level.size()) ++s.nodes_per_level[l];
      }
      deg0 += g.neighbors0(v).size();
      ++n0;
    }
  } else {
    for (const auto& node : im.nodes) {
      if (node.layers.empty()) continue;
      for (std::size_t l = 0; l < node.layers.size(); ++l) {
        if (l < s.nodes_per_level.size()) ++s.nodes_per_level[l];
      }
      deg0 += node.layers[0].size();
      ++n0;
    }
  }
  s.avg_degree_level0 = n0 ? double(deg0) / double(n0) : 0.0;
  return s;
}

std::vector<std::byte> HnswIndex::to_bytes() const {
  const Impl& im = *impl_;
  BinaryWriter w;
  w.reserve(128);
  w.write(std::uint32_t{0x414E4E31});  // "ANN1"
  w.write(std::uint64_t(params_.M));
  w.write(std::uint64_t(params_.ef_construction));
  w.write(std::uint64_t(params_.ef_search));
  w.write(params_.level_mult);
  w.write(params_.seed);
  w.write(std::int32_t(params_.metric));
  w.write(std::uint64_t(data_->size()));
  w.write(std::int32_t(im.max_level));
  w.write(std::uint32_t(im.entry_point));
  if (im.frozen.load(std::memory_order_acquire)) {
    im.flat.write_nodes(w);  // same wire format, emitted from the slab
  } else {
    for (const auto& node : im.nodes) {
      w.write(std::uint32_t(node.layers.size()));
      for (const auto& layer : node.layers) {
        w.write_span(std::span<const LocalId>(layer));
      }
    }
  }
  return w.take();
}

void HnswIndex::save(const std::string& path) const {
  const auto bytes = to_bytes();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ANNSIM_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  ANNSIM_CHECK(out.good());
}

HnswIndex HnswIndex::load(const std::string& path, const data::Dataset* data) {
  std::ifstream in(path, std::ios::binary);
  ANNSIM_CHECK_MSG(in.good(), "cannot open for reading: " << path);
  std::vector<std::byte> bytes;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  bytes.resize(size);
  in.read(reinterpret_cast<char*>(bytes.data()), std::streamsize(size));
  ANNSIM_CHECK(in.good());
  return from_bytes(bytes, data);
}

HnswIndex HnswIndex::from_bytes(std::span<const std::byte> bytes,
                                const data::Dataset* data) {
  ANNSIM_CHECK(data != nullptr);
  BinaryReader r(bytes);
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == 0x414E4E31, "bad HNSW file magic");
  HnswParams p;
  p.M = r.read<std::uint64_t>();
  p.ef_construction = r.read<std::uint64_t>();
  p.ef_search = r.read<std::uint64_t>();
  p.level_mult = r.read<double>();
  p.seed = r.read<std::uint64_t>();
  const auto metric = r.read<std::int32_t>();
  ANNSIM_CHECK_MSG(metric >= 0 && metric <= std::int32_t(simd::Metric::kCosine),
                   "HNSW file: unknown metric " << metric);
  p.metric = simd::Metric(metric);
  ANNSIM_CHECK_MSG(p.M >= 2, "HNSW file: M = " << p.M << " is below 2");
  const auto n = r.read<std::uint64_t>();
  ANNSIM_CHECK_MSG(n == data->size(), "HNSW file does not match dataset size");

  // Deserialize straight into the frozen flat form: the linked graph (and
  // its per-node locks) are never materialized for replicas.
  auto impl = std::make_unique<Impl>(n, /*mutable_graph=*/false);
  FlatGraph& g = impl->flat;
  g.read(r, n, r.remaining() / sizeof(LocalId));
  impl->max_level = g.max_level();
  impl->entry_point = g.entry_point();
  impl->n_inserted.store(g.n_inserted());
  impl->frozen.store(true, std::memory_order_release);
  return HnswIndex(data, p, std::move(impl));
}

std::vector<Neighbor> BruteForceIndex::search(const float* query,
                                              std::size_t k) const {
  TopK topk(k);
  const std::size_t n = data_->size();
  if (n == 0) return {};
  const float* base = data_->row(0);
  const std::size_t stride = data_->stride();

  // Blocked one-to-many kernel over contiguous rows; ranking in search space
  // (order-identical), converted once on the k results at the end.
  constexpr std::size_t kBlock = 256;
  float dists[kBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t m = std::min(kBlock, n - i0);
    dist_.search_dist_batch(query, base + i0 * stride, stride,
                            /*ids=*/nullptr, m, dists);
    for (std::size_t j = 0; j < m; ++j) {
      topk.push(dists[j], data_->id(i0 + j));
    }
  }
  auto out = topk.take_sorted();
  for (auto& nb : out) nb.dist = dist_.to_ranking(nb.dist);
  return out;
}

}  // namespace annsim::hnsw
