#pragma once
/// \file probes.hpp
/// \brief Per-layer probes of a traced run. Each one times a layer's public
/// functions from the benchmark's own code (no spans inside the program)
/// and records the layer's kPerLayer metrics.

#include <cstddef>
#include <string>

#include "annsim/core/engine.hpp"
#include "annsim/data/dataset.hpp"
#include "bench.hpp"

namespace perfbench {

/// core.* phase costs and exact job counts, plus mpi.* traffic per query,
/// from SearchStats of whole-query-set searches; core.search_ms.b1/b32 from
/// single engine calls at batch size 1 and 32.
void probe_core(annsim::core::DistributedAnnEngine& engine,
                const annsim::data::Dataset& queries, Report& r);

/// mpi.runtime_run_us: spawn and join of a runtime running nothing, the
/// fixed cost every search batch and write round pays.
void probe_mpi_runtime(std::size_t ranks, Report& r);

/// vptree.route_us: one route_topk call of the engine's router.
void probe_vptree(const annsim::core::DistributedAnnEngine& engine,
                  const annsim::data::Dataset& queries, Report& r);

/// hnsw.build_s and hnsw.search_us on a frozen HnswIndex the probe builds
/// over `rows` (one partition's worth) with the engine's HNSW parameters.
void probe_hnsw(const annsim::data::Dataset& rows,
                const annsim::core::EngineConfig& cfg,
                const annsim::data::Dataset& queries, Report& r);

/// simd.l2_ns and simd.l2_u8_ns: one 128-d distance through the float and
/// the SQ8 batch kernels, at scattered rows as an HNSW beam reads them.
void probe_simd(const annsim::data::Dataset& rows,
                const annsim::data::Dataset& queries, Report& r);

/// quant.* on a SegmentedIndex of `rows` with SQ8 frozen segments only, then
/// segment.* on the same index: inserts of `fresh` rows into a half-full
/// delta, tombstones, a search over delta plus tombstones, and one minor and
/// one major compaction.
void probe_quant_segment(const annsim::data::Dataset& rows,
                         const annsim::data::Dataset& fresh,
                         const annsim::core::EngineConfig& cfg,
                         const annsim::data::Dataset& queries, Report& r);

/// recovery.commit_ms.*: 8-frame WriteLog appends plus one group-commit
/// fsync, in a log under `dir`.
void probe_recovery(const std::string& dir, const annsim::data::Dataset& rows,
                    Report& r);

}  // namespace perfbench
