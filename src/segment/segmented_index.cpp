#include "annsim/segment/segmented_index.hpp"

#include <algorithm>
#include <utility>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/common/topk.hpp"

namespace annsim::segment {

namespace {

constexpr std::uint32_t kMagic = 0x414E5347;  // "ANSG"
/// v1: full-float segments, header ends at next_segment_id. Written whenever
/// quantize_frozen is off so non-quantized images stay byte-identical to
/// every build that came before (the checkpoint store's immutable seg_<id>
/// blobs depend on that).
constexpr std::uint32_t kVersionFloat = 1;
/// v2: header appends float_cache_fraction (its presence implies
/// quantize_frozen); each segment blob is prefixed with a kind byte.
constexpr std::uint32_t kVersionQuant = 2;
constexpr std::uint8_t kSegKindFloat = 0;
constexpr std::uint8_t kSegKindSq8 = 1;

/// Rows of a Dataset packed dim-tight (the SIMD padding is a storage
/// concern, not a wire concern).
std::vector<float> pack_rows(const data::Dataset& ds, std::size_t count) {
  std::vector<float> packed(count * ds.dim());
  for (std::size_t i = 0; i < count; ++i) {
    auto row = ds.row_span(i);
    std::copy(row.begin(), row.end(), packed.begin() + i * ds.dim());
  }
  return packed;
}

}  // namespace

SegmentedIndex::SegmentedIndex(SegmentedParams params, std::size_t dim)
    : params_(params), dim_(dim) {
  ANNSIM_CHECK_MSG(dim_ > 0, "SegmentedIndex requires a nonzero dimension "
                             "(pass Dataset(0, dim) for a delta-only index)");
  ANNSIM_CHECK_MSG(params_.delta_capacity >= 1,
                   "delta_capacity must be nonzero");
  if (params_.quantize_frozen) {
    ANNSIM_CHECK_MSG(params_.hnsw.metric == simd::Metric::kL2 ||
                         params_.hnsw.metric == simd::Metric::kInnerProduct,
                     "quantize_frozen requires an L2 or InnerProduct metric "
                     "(no uint8 kernels for "
                         << simd::metric_name(params_.hnsw.metric) << ")");
    ANNSIM_CHECK_MSG(params_.float_cache_fraction >= 0.0 &&
                         params_.float_cache_fraction <= 1.0,
                     "float_cache_fraction must be within [0, 1]");
  }
}

SegmentedIndex::SegmentedIndex(data::Dataset base, SegmentedParams params,
                               ThreadPool* pool)
    : SegmentedIndex(params, base.dim()) {
  auto v = std::make_shared<View>();
  v->tombs = std::make_shared<const std::unordered_set<GlobalId>>();
  if (!base.empty()) {
    for (GlobalId id : base.ids()) {
      const bool fresh = live_.insert(id).second;
      ANNSIM_CHECK_MSG(fresh, "SegmentedIndex: duplicate global id "
                                  << id << " in the base dataset");
    }
    v->segments.push_back(freeze_rows(std::move(base), pool));
  }
  v->delta = make_delta();
  view_ = std::move(v);
}

std::shared_ptr<const SegmentedIndex::View> SegmentedIndex::snapshot() const {
  std::lock_guard lk(view_mu_);
  return view_;
}

void SegmentedIndex::publish(std::shared_ptr<const View> v) {
  std::lock_guard lk(view_mu_);
  view_ = std::move(v);
}

std::shared_ptr<SegmentedIndex::Delta> SegmentedIndex::make_delta() const {
  auto d = std::make_shared<Delta>();
  d->data = std::make_unique<data::Dataset>(params_.delta_capacity, dim_);
  d->index = std::make_unique<hnsw::HnswIndex>(d->data.get(), params_.hnsw);
  return d;
}

std::shared_ptr<const SegmentedIndex::Segment> SegmentedIndex::freeze_rows(
    data::Dataset rows, ThreadPool* pool,
    std::span<const std::uint64_t> heat) {
  auto seg = std::make_shared<Segment>();
  seg->id = next_segment_id_++;
  if (params_.quantize_frozen) {
    // Quantize on freeze: the codec trains on exactly the rows it encodes,
    // the graph is built on the floats, and the full-float rows are dropped
    // when `rows` goes out of scope — only codes + re-rank cache stay.
    quant::SqSegmentParams qp;
    qp.hnsw = params_.hnsw;
    qp.float_cache_fraction = params_.float_cache_fraction;
    seg->quant = quant::SqSegment::build(rows, qp, pool, heat);
    return seg;
  }
  seg->data = std::make_unique<data::Dataset>(std::move(rows));
  seg->index = std::make_unique<hnsw::HnswIndex>(seg->data.get(), params_.hnsw);
  seg->index->build(pool);
  return seg;
}

std::vector<Neighbor> SegmentedIndex::search(const float* query, std::size_t k,
                                             std::size_t ef) const {
  ANNSIM_CHECK(k > 0);
  const auto v = snapshot();
  const auto& tombs = *v->tombs;
  // Overfetch by the tombstone count so deletions cannot starve the result
  // set: even if every tombstoned row outranks the query's true neighbors,
  // k live candidates survive the filter.
  const std::size_t k_eff = k + tombs.size();

  TopK top(k);
  auto offer = [&](const std::vector<Neighbor>& res) {
    for (const auto& n : res) {
      if (!tombs.contains(n.id)) top.push(n);
    }
  };
  for (const auto& seg : v->segments) {
    offer(seg->quant ? seg->quant->search(query, k_eff, ef)
                     : seg->index->search(query, k_eff, ef));
  }
  if (v->delta->used.load(std::memory_order_acquire) > 0) {
    offer(v->delta->index->search(query, k_eff, ef));
  }

  auto out = top.take_sorted();
  // Ids are unique by construction (insert rejects live ids and purges
  // tombstoned ones); this guards the invariant at the boundary anyway.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Neighbor& a, const Neighbor& b) {
                          return a.id == b.id;
                        }),
            out.end());
  return out;
}

void SegmentedIndex::insert(std::span<const float> vec, GlobalId id) {
  ANNSIM_CHECK_MSG(vec.size() == dim_,
                   "SegmentedIndex::insert: vector dimension "
                       << vec.size() << " != index dimension " << dim_);
  std::lock_guard wl(write_mu_);
  {
    std::lock_guard ll(live_mu_);
    ANNSIM_CHECK_MSG(!live_.contains(id),
                     "SegmentedIndex::insert: id " << id << " is already live");
  }
  auto v = snapshot();
  if (v->tombs->contains(id)) {
    // Re-insert of a previously erased id: its old physical copies still sit
    // in frozen rows and the tombstone that hides them would hide the new
    // row too. Only a major compaction purges both.
    compact_locked(nullptr, /*force_major=*/true);
    v = snapshot();
  }
  if (v->delta->used.load(std::memory_order_relaxed) >=
      params_.delta_capacity) {
    compact_locked(nullptr);
    v = snapshot();
  }

  Delta& d = *v->delta;
  std::size_t row = d.used.load(std::memory_order_relaxed);
  try {
    d.data->set_row(row, vec);
    d.data->set_id(row, id);
    d.index->insert(LocalId(row));
  } catch (const hnsw::FrozenIndexError&) {
    // The delta is never frozen while absorbing writes; if that contract is
    // ever violated, rebuild through a compaction instead of wedging the
    // write path — the typed error is what makes this recoverable.
    compact_locked(nullptr);
    v = snapshot();
    row = 0;
    v->delta->data->set_row(row, vec);
    v->delta->data->set_id(row, id);
    v->delta->index->insert(LocalId(row));
  }
  // Row contents are published before the count: a reader that observes
  // used > row also observes the row's data and id.
  v->delta->used.store(row + 1, std::memory_order_release);
  {
    std::lock_guard ll(live_mu_);
    live_.insert(id);
  }
}

bool SegmentedIndex::erase(GlobalId id) {
  std::lock_guard wl(write_mu_);
  {
    std::lock_guard ll(live_mu_);
    if (live_.erase(id) == 0) return false;
  }
  // Copy-on-write: the tombstone set rides inside the View so an in-flight
  // reader keeps filtering against exactly the physical rows it can see.
  const auto v = snapshot();
  auto tombs = std::make_shared<std::unordered_set<GlobalId>>(*v->tombs);
  tombs->insert(id);
  auto nv = std::make_shared<View>(*v);
  nv->tombs = std::move(tombs);
  publish(std::move(nv));
  return true;
}

bool SegmentedIndex::compact(ThreadPool* pool) {
  std::lock_guard wl(write_mu_);
  return compact_locked(pool);
}

bool SegmentedIndex::compact_locked(ThreadPool* pool, bool force_major) {
  const auto v = snapshot();
  const std::size_t used = v->delta->used.load(std::memory_order_acquire);
  const auto& tombs = *v->tombs;

  // Tier decision. Minor compaction is O(delta) and is what serving traffic
  // experiences; the O(index) major merge only runs when the segment count
  // or the tombstone debt would otherwise grow without bound.
  std::size_t frozen_rows = 0;
  for (const auto& seg : v->segments) frozen_rows += seg->rows();
  const bool too_many_segments =
      v->segments.size() + (used > 0 ? 1 : 0) > kMajorFanout;
  const bool tomb_heavy = !tombs.empty() && tombs.size() * 4 >= frozen_rows;
  if (!force_major && !too_many_segments && !tomb_heavy) {
    if (used == 0) return false;  // nothing to fold, no pressure
    // Minor: freeze the delta's live rows into one new segment; existing
    // segments (and the tombstones filtering them) stay as they are.
    std::size_t n_live_delta = 0;
    for (std::size_t i = 0; i < used; ++i) {
      if (!tombs.contains(v->delta->data->id(i))) ++n_live_delta;
    }
    auto nv = std::make_shared<View>(*v);
    nv->delta = make_delta();
    if (n_live_delta > 0) {
      data::Dataset rows(n_live_delta, dim_);
      std::size_t w = 0;
      for (std::size_t i = 0; i < used; ++i) {
        if (tombs.contains(v->delta->data->id(i))) continue;
        rows.set_row(w, v->delta->data->row_span(i));
        rows.set_id(w, v->delta->data->id(i));
        ++w;
      }
      nv->segments.push_back(freeze_rows(std::move(rows), pool));
    }
    publish(std::move(nv));
    compactions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::size_t n_live = 0;
  for (const auto& seg : v->segments) {
    for (GlobalId id : seg->row_ids()) {
      if (!tombs.contains(id)) ++n_live;
    }
  }
  for (std::size_t i = 0; i < used; ++i) {
    if (!tombs.contains(v->delta->data->id(i))) ++n_live;
  }

  data::Dataset merged(n_live, dim_);
  // Row-aligned access counts harvested from the quantized segments being
  // merged: the fresh segment's re-rank cache is re-selected from measured
  // traffic, not hubness guesses. Float segments and delta rows carry 0.
  std::vector<std::uint64_t> heat;
  if (params_.quantize_frozen) heat.reserve(n_live);
  std::size_t w = 0;
  auto take = [&](const data::Dataset& ds, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (tombs.contains(ds.id(i))) continue;
      merged.set_row(w, ds.row_span(i));
      merged.set_id(w, ds.id(i));
      if (params_.quantize_frozen) heat.push_back(0);
      ++w;
    }
  };
  std::vector<float> tmp(dim_);
  for (const auto& seg : v->segments) {
    if (seg->quant) {
      const auto counts = seg->quant->access_counts();
      for (std::size_t i = 0; i < seg->quant->size(); ++i) {
        if (tombs.contains(seg->quant->id(i))) continue;
        seg->quant->reconstruct(i, tmp.data());
        merged.set_row(w, std::span<const float>(tmp.data(), dim_));
        merged.set_id(w, seg->quant->id(i));
        heat.push_back(counts[i]);
        ++w;
      }
    } else {
      take(*seg->data, seg->data->size());
    }
  }
  take(*v->delta->data, used);

  auto nv = std::make_shared<View>();
  nv->tombs = std::make_shared<const std::unordered_set<GlobalId>>();
  if (n_live > 0) nv->segments.push_back(freeze_rows(std::move(merged), pool, heat));
  nv->delta = make_delta();
  publish(std::move(nv));
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t SegmentedIndex::size() const {
  std::lock_guard ll(live_mu_);
  return live_.size();
}

std::size_t SegmentedIndex::delta_fill() const {
  return snapshot()->delta->used.load(std::memory_order_acquire);
}

bool SegmentedIndex::contains(GlobalId id) const {
  std::lock_guard ll(live_mu_);
  return live_.contains(id);
}

SegmentedStats SegmentedIndex::stats() const {
  const auto v = snapshot();
  SegmentedStats s;
  s.n_segments = v->segments.size();
  for (const auto& seg : v->segments) {
    s.segment_rows += seg->rows();
    if (seg->quant) {
      s.quant_rows += seg->quant->size();
      s.quant_resident_bytes += seg->quant->memory_bytes();
      s.quant_float_bytes += seg->quant->float_bytes();
      s.quant_cached_rows += seg->quant->cached_rows();
      const auto c = seg->quant->counters();
      s.rerank_exact += c.rerank_exact;
      s.rerank_coded += c.rerank_coded;
    }
  }
  s.delta_used = v->delta->used.load(std::memory_order_acquire);
  s.delta_capacity = params_.delta_capacity;
  s.tombstones = v->tombs->size();
  s.compactions = compactions_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Serialization. Full image = header | segments | delta, with every part
// individually length-delimited so a checkpoint store can persist them as
// separate files and skip unchanged (id-stable) segment blobs.
// ---------------------------------------------------------------------------

SegmentedIndex::SnapshotParts SegmentedIndex::snapshot_parts() const {
  // Serializing against writers makes the parts a consistent cut: no row can
  // land in the delta, and no tombstone or compaction can slip in, between
  // the header and the last byte.
  std::lock_guard wl(write_mu_);
  const auto v = snapshot();
  SnapshotParts parts;

  {
    BinaryWriter w;
    w.write<std::uint32_t>(kMagic);
    w.write<std::uint32_t>(params_.quantize_frozen ? kVersionQuant
                                                   : kVersionFloat);
    w.write<std::uint64_t>(dim_);
    w.write<std::uint32_t>(static_cast<std::uint32_t>(params_.hnsw.metric));
    w.write<std::uint64_t>(params_.hnsw.M);
    w.write<std::uint64_t>(params_.hnsw.ef_construction);
    w.write<std::uint64_t>(params_.hnsw.ef_search);
    w.write<double>(params_.hnsw.level_mult);
    w.write<std::uint64_t>(params_.hnsw.seed);
    w.write<std::uint64_t>(params_.delta_capacity);
    w.write<std::uint64_t>(next_segment_id_);
    if (params_.quantize_frozen) {
      w.write<double>(params_.float_cache_fraction);
    }
    parts.header = w.take();
  }

  for (const auto& seg : v->segments) {
    // Segments are immutable: serialize once, reuse the cached bytes on
    // every later snapshot (write rounds checkpoint after each batch, so
    // this runs hot).
    std::call_once(seg->wire_once, [&] {
      BinaryWriter w;
      if (params_.quantize_frozen) {
        // v2 blobs carry a kind byte. Quantized images ship codes + codebook
        // + graph + cached floats — about 4x smaller than the float form.
        if (seg->quant) {
          w.write<std::uint8_t>(kSegKindSq8);
          w.write_vector(seg->quant->to_bytes());
          seg->wire = w.take();
          return;
        }
        w.write<std::uint8_t>(kSegKindFloat);
      }
      const std::size_t count = seg->data->size();
      w.write<std::uint64_t>(count);
      w.write_span(seg->data->ids());
      w.write_vector(pack_rows(*seg->data, count));
      w.write_vector(seg->index->to_bytes());
      seg->wire = w.take();
    });
    parts.segments.emplace_back(seg->id, seg->wire);
  }

  {
    BinaryWriter w;
    const std::size_t used = v->delta->used.load(std::memory_order_acquire);
    w.write<std::uint64_t>(used);
    w.write_span(v->delta->data->ids().subspan(0, used));
    w.write_vector(pack_rows(*v->delta->data, used));
    // Sorted so the delta blob is byte-stable for identical logical state.
    std::vector<GlobalId> tombs(v->tombs->begin(), v->tombs->end());
    std::sort(tombs.begin(), tombs.end());
    w.write_vector(tombs);
    parts.delta = w.take();
  }
  return parts;
}

std::vector<std::byte> SegmentedIndex::to_bytes() const {
  const auto parts = snapshot_parts();
  BinaryWriter w;
  w.write_vector(parts.header);
  w.write<std::uint64_t>(parts.segments.size());
  for (const auto& [seg_id, blob] : parts.segments) {
    w.write<std::uint64_t>(seg_id);
    w.write_vector(blob);
  }
  w.write_vector(parts.delta);
  return w.take();
}

std::unique_ptr<SegmentedIndex> SegmentedIndex::from_bytes(
    std::span<const std::byte> bytes, const Expected* expect) {
  BinaryReader r(bytes);
  const auto header = r.read_vector<std::byte>();
  const auto n_segments = r.read<std::uint64_t>();
  std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> segments;
  segments.reserve(n_segments);
  for (std::uint64_t i = 0; i < n_segments; ++i) {
    const auto seg_id = r.read<std::uint64_t>();
    segments.emplace_back(seg_id, r.read_vector<std::byte>());
  }
  const auto delta = r.read_vector<std::byte>();
  ANNSIM_CHECK_MSG(r.exhausted(),
                   "SegmentedIndex::from_bytes: trailing bytes after image");
  return from_parts(header, segments, delta, expect);
}

std::unique_ptr<SegmentedIndex> SegmentedIndex::from_parts(
    std::span<const std::byte> header,
    std::span<const std::pair<std::uint64_t, std::vector<std::byte>>> segments,
    std::span<const std::byte> delta, const Expected* expect) {
  BinaryReader h(header);
  const auto magic = h.read<std::uint32_t>();
  ANNSIM_CHECK_MSG(magic == kMagic,
                   "SegmentedIndex: bad header magic " << magic);
  const auto version = h.read<std::uint32_t>();
  ANNSIM_CHECK_MSG(version == kVersionFloat || version == kVersionQuant,
                   "SegmentedIndex: unsupported version " << version);
  const auto dim = h.read<std::uint64_t>();
  SegmentedParams params;
  params.hnsw.metric = static_cast<simd::Metric>(h.read<std::uint32_t>());
  params.hnsw.M = h.read<std::uint64_t>();
  params.hnsw.ef_construction = h.read<std::uint64_t>();
  params.hnsw.ef_search = h.read<std::uint64_t>();
  params.hnsw.level_mult = h.read<double>();
  params.hnsw.seed = h.read<std::uint64_t>();
  params.delta_capacity = h.read<std::uint64_t>();
  const auto next_segment_id = h.read<std::uint64_t>();
  if (version == kVersionQuant) {
    params.quantize_frozen = true;
    params.float_cache_fraction = h.read<double>();
  }
  ANNSIM_CHECK_MSG(h.exhausted(),
                   "SegmentedIndex: trailing bytes in header blob");
  if (expect != nullptr) {
    const SegmentedParams& e = expect->params;
    ANNSIM_CHECK_MSG(
        dim == expect->dim && params.hnsw.metric == e.hnsw.metric &&
            params.hnsw.M == e.hnsw.M &&
            params.hnsw.ef_construction == e.hnsw.ef_construction &&
            params.hnsw.ef_search == e.hnsw.ef_search &&
            params.hnsw.level_mult == e.hnsw.level_mult &&
            params.delta_capacity == e.delta_capacity &&
            params.quantize_frozen == e.quantize_frozen &&
            (!e.quantize_frozen ||
             params.float_cache_fraction == e.float_cache_fraction),
        "SegmentedIndex: image (dim " << dim << ", delta capacity "
                                      << params.delta_capacity
                                      << ") does not match the index it "
                                         "restores into");
  }

  std::unique_ptr<SegmentedIndex> idx(
      new SegmentedIndex(params, std::size_t(dim)));
  idx->next_segment_id_ = next_segment_id;

  auto v = std::make_shared<View>();
  for (const auto& [seg_id, blob] : segments) {
    ANNSIM_CHECK_MSG(seg_id < next_segment_id,
                     "SegmentedIndex: segment id " << seg_id
                                                   << " from the future");
    BinaryReader r(blob);
    auto seg = std::make_shared<Segment>();
    seg->id = seg_id;
    if (version == kVersionQuant &&
        r.read<std::uint8_t>() == kSegKindSq8) {
      quant::SqSegmentParams qp;
      qp.hnsw = params.hnsw;
      qp.float_cache_fraction = params.float_cache_fraction;
      const auto quant_bytes = r.read_vector<std::byte>();
      ANNSIM_CHECK_MSG(r.exhausted(), "SegmentedIndex: trailing segment bytes");
      seg->quant = quant::SqSegment::from_bytes(quant_bytes, qp);
      ANNSIM_CHECK_MSG(seg->quant->dim() == dim,
                       "SegmentedIndex: segment " << seg_id
                                                  << " dimension mismatch");
      v->segments.push_back(std::move(seg));
      continue;
    }
    const auto count = r.read<std::uint64_t>();
    const auto ids = r.read_vector<GlobalId>();
    const auto packed = r.read_vector<float>();
    const auto index_bytes = r.read_vector<std::byte>();
    ANNSIM_CHECK_MSG(r.exhausted(), "SegmentedIndex: trailing segment bytes");
    ANNSIM_CHECK_MSG(ids.size() == count && packed.size() == count * dim,
                     "SegmentedIndex: segment " << seg_id
                                                << " row/id count mismatch");
    seg->data = std::make_unique<data::Dataset>(count, std::size_t(dim));
    for (std::size_t i = 0; i < count; ++i) {
      seg->data->set_row(i, std::span<const float>(&packed[i * dim], dim));
      seg->data->set_id(i, ids[i]);
    }
    seg->index = std::make_unique<hnsw::HnswIndex>(
        hnsw::HnswIndex::from_bytes(index_bytes, seg->data.get()));
    v->segments.push_back(std::move(seg));
  }

  BinaryReader r(delta);
  const auto used = r.read<std::uint64_t>();
  const auto ids = r.read_vector<GlobalId>();
  const auto packed = r.read_vector<float>();
  const auto tombs = r.read_vector<GlobalId>();
  ANNSIM_CHECK_MSG(r.exhausted(), "SegmentedIndex: trailing delta bytes");
  ANNSIM_CHECK_MSG(used <= params.delta_capacity && ids.size() == used &&
                       packed.size() == used * dim,
                   "SegmentedIndex: delta row/id count mismatch");
  // The frozen serialized form of an HnswIndex cannot round-trip back into
  // the mutable linked form, so the delta is restored by replaying its rows
  // into a fresh mutable index (deterministic: levels derive from the seed).
  v->delta = idx->make_delta();
  for (std::size_t i = 0; i < used; ++i) {
    v->delta->data->set_row(i, std::span<const float>(&packed[i * dim], dim));
    v->delta->data->set_id(i, ids[i]);
    v->delta->index->insert(LocalId(i));
  }
  v->delta->used.store(used, std::memory_order_release);
  v->tombs = std::make_shared<const std::unordered_set<GlobalId>>(
      tombs.begin(), tombs.end());

  for (const auto& seg : v->segments) {
    for (GlobalId id : seg->row_ids()) {
      if (!v->tombs->contains(id)) idx->live_.insert(id);
    }
  }
  for (std::size_t i = 0; i < used; ++i) {
    if (!v->tombs->contains(ids[i])) idx->live_.insert(ids[i]);
  }
  idx->view_ = std::move(v);
  return idx;
}

}  // namespace annsim::segment
