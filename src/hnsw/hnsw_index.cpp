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
#include "annsim/hnsw/neighbor_select.hpp"

namespace annsim::hnsw {

namespace {

/// A row's HNSW level, floor(-ln(U) * mL), drawn from the seed and the row
/// id alone so every insertion order and thread count agrees.
int draw_level(const HnswParams& p, LocalId v) {
  Rng rng = Rng(p.seed).split(v);
  double u = 0.0;
  while (u == 0.0) u = rng.uniform();
  return int(-std::log(u) * p.level_mult);
}

/// Fixed-capacity LinkList blocks in one allocation: block b's header and
/// ids at words[b * (2 + cap)], its distances at dists[b * cap].
class LinkSlab {
 public:
  LinkSlab() = default;
  LinkSlab(std::size_t n_blocks, std::size_t cap)
      : cap_(cap), words_(n_blocks * (2 + cap)), dists_(n_blocks * cap) {}

  [[nodiscard]] LinkList list(std::size_t b) noexcept {
    return {words_.data() + b * (2 + cap_), dists_.data() + b * cap_};
  }
  [[nodiscard]] const LocalId* head(std::size_t b) const noexcept {
    return words_.data() + b * (2 + cap_);
  }
  [[nodiscard]] std::span<const LocalId> ids(std::size_t b) const noexcept {
    const LocalId* h = head(b);
    return {h + 2, h[0]};
  }

 private:
  std::size_t cap_ = 0;
  std::vector<LocalId> words_;
  std::vector<float> dists_;
};

/// The mutable linked graph. Every row's level is drawn up front, so all of
/// its lists are allocated at construction: one layer-0 block per row
/// (capacity 2M) and `level` upper blocks per row (capacity M), each in one
/// slab. An insert allocates nothing.
struct LinkedGraph {
  LinkedGraph() = default;
  LinkedGraph(std::size_t n, const HnswParams& p)
      : level(n), upper_start(n), inserted(n, 0) {
    std::size_t n_upper = 0;
    for (std::size_t v = 0; v < n; ++v) {
      level[v] = draw_level(p, LocalId(v));
      upper_start[v] = n_upper;
      n_upper += std::size_t(level[v]);
    }
    layer0 = LinkSlab(n, 2 * p.M);
    upper = LinkSlab(n_upper, p.M);
  }

  /// v's list at `layer` (at most its level).
  [[nodiscard]] LinkList list(LocalId v, int layer) noexcept {
    return layer == 0 ? layer0.list(v) : upper.list(upper_block(v, layer));
  }
  /// v's neighbors at `layer` (empty above its level or before its insert).
  [[nodiscard]] std::span<const LocalId> ids(LocalId v, int layer) const noexcept {
    if (layer == 0) return layer0.ids(v);
    if (layer > level[v]) return {};
    return upper.ids(upper_block(v, layer));
  }
  /// The kept count of v's list at `layer` (at most its level).
  [[nodiscard]] std::uint32_t kept(LocalId v, int layer) const noexcept {
    return (layer == 0 ? layer0.head(v) : upper.head(upper_block(v, layer)))[1];
  }
  /// Layers v holds in the ANN1 wire format: none until it is inserted.
  [[nodiscard]] std::size_t n_layers(LocalId v) const noexcept {
    return inserted[v] ? std::size_t(level[v]) + 1 : 0;
  }
  void prefetch0(LocalId v) const noexcept { simd::prefetch_line(layer0.head(v)); }
  [[nodiscard]] std::size_t upper_block(LocalId v, int layer) const noexcept {
    return upper_start[v] + std::size_t(layer) - 1;
  }

  std::vector<std::int32_t> level;
  std::vector<std::size_t> upper_start;  ///< v's first block in `upper`
  std::vector<std::uint8_t> inserted;
  LinkSlab layer0;
  LinkSlab upper;
};

/// Linked-graph adjacency once the graph is complete: no link can change
/// again, so lists are read in place, zero-copy and lock-free.
struct InPlaceLinks {
  const LinkedGraph& g;
  std::span<const LocalId> operator()(LocalId v, int layer) const {
    return g.ids(v, layer);
  }
};

/// Linked-graph adjacency while inserts may run: the list is copied under
/// the node's lock into a reused buffer (capacity retained across
/// expansions, so the steady-state cost is a memcpy).
struct LockedLinks {
  const LinkedGraph& g;
  std::mutex* locks;
  std::vector<LocalId>& copy;
  std::span<const LocalId> operator()(LocalId v, int layer) const {
    std::lock_guard lk(locks[v]);
    const auto ids = g.ids(v, layer);
    copy.assign(ids.begin(), ids.end());
    return copy;
  }
};

/// Batched search-space distances from `query` to dataset rows.
auto row_dists(const data::Dataset& data, const simd::DistanceComputer& dist,
               const float* query) {
  return [&data, &dist, query](const LocalId* ids, std::size_t m, float* out) {
    dist.search_dist_batch(query, data.row(0), data.stride(), ids, m, out);
  };
}

}  // namespace

struct HnswIndex::Impl {
  Impl() = default;
  Impl(std::size_t n, const HnswParams& p)
      : graph(n, p), locks(std::make_unique<std::mutex[]>(n)) {}

  /// The linked graph. Populated only while the index is mutable; freeze()
  /// releases it.
  LinkedGraph graph;
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
    : data_(data), params_(params) {
  ANNSIM_CHECK(data_ != nullptr);
  ANNSIM_CHECK(params_.M >= 2);
  ANNSIM_CHECK(params_.ef_construction >= params_.M);
  if (params_.level_mult <= 0.0) {
    params_.level_mult = 1.0 / std::log(double(params_.M));
  }
  impl_ = std::make_unique<Impl>(data_->size(), params_);
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
  LinkedGraph& g = im.graph;
  {
    std::lock_guard lk(im.locks[node]);
    ANNSIM_CHECK_MSG(!g.inserted[node], "node inserted twice: " << node);
    g.inserted[node] = 1;
  }

  const simd::DistanceComputer dist(params_.metric, data_->dim());
  const float* qv = data_->row(node);
  const int level = g.level[node];

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
      im.n_inserted.fetch_add(1, std::memory_order_release);
      return;
    }
  }

  // Linked lists hold at most 2M ids (layer 0), which sizes the gather.
  auto scratch = im.scratch.acquire(data_->size(), 2 * params_.M);
  SearchScratch& s = *scratch;
  const LockedLinks adj{g, im.locks.get(), s.links};
  const auto dist_batch = row_dists(*data_, dist, qv);
  const auto prefetch = [&g](LocalId v) { g.prefetch0(v); };
  const auto pair_dist = [this, &dist](LocalId a, LocalId b) {
    return dist.search_dist(data_->row(a), data_->row(b));
  };

  // Greedy descent through layers above the node's level.
  s.entries.assign(1, greedy_descent(adj, dist_batch, prefetch, entry,
                                     top_level, level, s));

  // Connect at each layer from min(level, top_level) down to 0.
  for (int layer = std::min(level, top_level); layer >= 0; --layer) {
    search_layer(adj, dist_batch, prefetch, s.entries, layer,
                 params_.ef_construction, s);
    const auto& candidates = s.best;  // ascending
    const std::size_t m_layer = layer == 0 ? params_.M * 2 : params_.M;
    const std::size_t n_kept = select_neighbors(candidates, params_.M,
                                                pair_dist, s.neighbors, s.pruned);
    {
      std::lock_guard lk(im.locks[node]);
      g.list(node, layer).assign(s.neighbors, n_kept);
    }

    // Back-links, each reusing its link's distance (the kernels are
    // symmetric bit for bit); an overflowing list is re-selected. A
    // concurrent insert of `nb` may have linked it to `node` already; a
    // single-threaded build never has.
    for (const Cand& nb : s.neighbors) {
      std::lock_guard lk(im.locks[nb.node]);
      LinkList links = g.list(nb.node, layer);
      const auto ids = links.ids();
      if (std::find(ids.begin(), ids.end(), node) != ids.end()) continue;
      const Cand back{nb.dist, node};
      if (links.count() < m_layer) {
        links.push_back(back);
      } else {
        reselect(links, m_layer, back, pair_dist, s);
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

  const LinkedGraph& lg = im.graph;
  const std::size_t n = lg.level.size();
  std::size_t slab_hint = 0;
  for (LocalId v = 0; v < n; ++v) {
    for (std::size_t l = 0; l < lg.n_layers(v); ++l) {
      slab_hint += 1 + lg.ids(v, int(l)).size();
    }
  }
  FlatGraph g;
  g.init(n, slab_hint);
  for (LocalId v = 0; v < n; ++v) {
    g.add_node(lg.n_layers(v),
               [&lg, v](std::size_t l) { return lg.ids(v, int(l)); });
  }
  g.set_entry(im.entry_point, im.max_level);
  im.flat = std::move(g);

  // Drop the mutable linked form; the flat graph is now the only
  // representation (inserts are rejected from here on).
  im.graph = LinkedGraph();
  im.frozen.store(true, std::memory_order_release);
}

void HnswIndex::check_links() const {
  const Impl& im = *impl_;
  if (im.frozen.load(std::memory_order_acquire)) return;
  const LinkedGraph& g = im.graph;
  const std::size_t n = g.level.size();
  std::vector<LocalId> sorted;
  for (LocalId v = 0; v < n; ++v) {
    for (std::size_t l = 0; l < g.n_layers(v); ++l) {
      const auto ids = g.ids(v, int(l));
      const std::uint32_t kept = g.kept(v, int(l));
      const std::size_t cap = l == 0 ? 2 * params_.M : params_.M;
      sorted.assign(ids.begin(), ids.end());
      std::sort(sorted.begin(), sorted.end());
      ANNSIM_CHECK_MSG(
          ids.size() <= cap && kept <= ids.size() &&
              (sorted.empty() || sorted.back() < n) &&
              std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
          "linked graph: node " << v << " layer " << l << " holds "
                                << ids.size() << " links (kept " << kept
                                << ") out of range, repeated or over "
                                << "capacity " << cap);
    }
  }
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
    const LinkedGraph& g = im.graph;
    const auto prefetch = [&g](LocalId v) { g.prefetch0(v); };
    if (im.n_inserted.load(std::memory_order_acquire) == data_->size()) {
      beam_search(InPlaceLinks{g}, dist_batch, prefetch, entry, top_level, ef,
                  *scratch);
    } else {
      beam_search(LockedLinks{g, im.locks.get(), scratch->links}, dist_batch,
                  prefetch, entry, top_level, ef, *scratch);
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
    const LinkedGraph& g = im.graph;
    for (LocalId v = 0; v < g.level.size(); ++v) {
      const std::size_t n_layers = g.n_layers(v);
      if (n_layers == 0) continue;
      for (std::size_t l = 0; l < n_layers; ++l) {
        if (l < s.nodes_per_level.size()) ++s.nodes_per_level[l];
      }
      deg0 += g.ids(v, 0).size();
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
    const LinkedGraph& g = im.graph;
    for (LocalId v = 0; v < g.level.size(); ++v) {
      const std::size_t n_layers = g.n_layers(v);
      w.write(std::uint32_t(n_layers));
      for (std::size_t l = 0; l < n_layers; ++l) w.write_span(g.ids(v, int(l)));
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
  auto impl = std::make_unique<Impl>();
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
