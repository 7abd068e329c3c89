#include "annsim/core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "annsim/common/backoff.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/log.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/dataset_transfer.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/recovery/checkpoint.hpp"
#include "annsim/segment/segmented_index.hpp"

namespace annsim::core {

// Validate outside the SPMD region: a rank that throws mid-collective would
// leave its peers blocked, as in real MPI. Field-specific messages so a
// misconfigured caller learns which knob is wrong, not just that something is.
void validate_engine_config(const EngineConfig& config) {
  ANNSIM_CHECK_MSG(config.n_workers >= 1,
                   "n_workers must be nonzero: the engine needs at least one "
                   "worker process");
  ANNSIM_CHECK_MSG(std::has_single_bit(config.n_workers),
                   "n_workers must be a power of two (got "
                       << config.n_workers << ")");
  ANNSIM_CHECK_MSG(config.replication >= 1,
                   "replication must be nonzero (r=1 means no replication)");
  ANNSIM_CHECK_MSG(config.replication <= config.n_workers,
                   "replication (" << config.replication
                                   << ") cannot exceed n_workers ("
                                   << config.n_workers
                                   << "): a workgroup has at most P members");
  ANNSIM_CHECK_MSG(config.n_probe >= 1,
                   "n_probe must be nonzero: every query probes at least one "
                   "partition");
  ANNSIM_CHECK_MSG(config.threads_per_worker >= 1,
                   "threads_per_worker must be nonzero");
  if (config.strategy == DispatchStrategy::kMultipleOwner) {
    ANNSIM_CHECK_MSG(!config.one_sided && !config.exact_routing,
                     "multiple-owner mode supports two-sided single-pass only");
  }
  ANNSIM_CHECK_MSG(simd::is_true_metric(config.hnsw.metric),
                   "VP-tree partitioning requires a true metric (L2 or L1)");
  ANNSIM_CHECK_MSG(is_local_index_kind(config.local_index),
                   "local_index " << int(config.local_index)
                                  << " is not a local index kind");
  ANNSIM_CHECK_MSG(
      config.partitioner.tree == vptree::PartitionTreeKind::kVpTree ||
          config.partitioner.tree == vptree::PartitionTreeKind::kKdTree,
      "partitioner.tree " << int(config.partitioner.tree)
                          << " is not a split rule");
  if (config.local_index == LocalIndexKind::kIvfPq) {
    ANNSIM_CHECK_MSG(config.hnsw.metric == simd::Metric::kL2,
                     "IVF-PQ local indexes support L2 only");
  }
  if (config.local_index == LocalIndexKind::kSegmented) {
    ANNSIM_CHECK_MSG(config.segment_delta_capacity >= 1,
                     "segment_delta_capacity must be nonzero: the mutable "
                     "delta needs room for at least one streamed insert");
  }
  if (config.quantize_frozen) {
    ANNSIM_CHECK_MSG(config.local_index == LocalIndexKind::kSegmented,
                     "quantize_frozen requires the segmented local index "
                     "(quantization happens when segments freeze)");
    ANNSIM_CHECK_MSG(config.hnsw.metric == simd::Metric::kL2 ||
                         config.hnsw.metric == simd::Metric::kInnerProduct,
                     "quantize_frozen supports L2 and InnerProduct only");
    ANNSIM_CHECK_MSG(config.float_cache_fraction >= 0.0 &&
                         config.float_cache_fraction <= 1.0,
                     "float_cache_fraction must be within [0, 1]");
  }
  ANNSIM_CHECK_MSG(config.result_timeout_ms >= 0.0,
                   "result_timeout_ms cannot be negative (0 is an infinite "
                   "deadline: no failure detection)");
  if (config.result_timeout_ms > 0.0) {
    ANNSIM_CHECK_MSG(config.strategy == DispatchStrategy::kMasterWorker,
                     "result_timeout_ms (failure detection) requires the "
                     "master-worker dispatch strategy");
    ANNSIM_CHECK_MSG(!config.exact_routing,
                     "result_timeout_ms (failure detection) does not support "
                     "exact_routing's two-phase protocol");
  }
  ANNSIM_CHECK_MSG(
      config.fault.drop_probability >= 0.0 && config.fault.drop_probability <= 1.0,
      "fault.drop_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(config.fault.delay_probability >= 0.0 &&
                       config.fault.delay_probability <= 1.0,
                   "fault.delay_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(config.fault.delay.count() >= 0,
                   "fault.delay cannot be negative");
  ANNSIM_CHECK_MSG(config.fault.duplicate_probability >= 0.0 &&
                       config.fault.duplicate_probability <= 1.0,
                   "fault.duplicate_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(config.fault.reorder_probability >= 0.0 &&
                       config.fault.reorder_probability <= 1.0,
                   "fault.reorder_probability must be within [0, 1]");
  if (config.fault.enabled()) {
    // Only plans that can actually fire need the failure detector: a killed
    // (or dropped-on) worker is silent, and the non-detect search master
    // blocks forever on the missing result. Plans whose every trigger sits at
    // kNeverFires merely arm the injector plumbing — annsim::explore uses
    // such plans to turn the write plane's recv_for deadlines into schedule
    // choice points — and cannot silence anyone, so they are safe without
    // detection (the write plane's recv_for keeps its 1s floor regardless).
    bool can_fire = config.fault.drop_probability > 0.0 ||
                    config.fault.delay_probability > 0.0 ||
                    config.fault.duplicate_probability > 0.0 ||
                    config.fault.reorder_probability > 0.0;
    for (const mpi::KillRule& kill : config.fault.kills) {
      can_fire = can_fire || kill.after_ops != mpi::kNeverFires ||
                 kill.at_step != mpi::kNeverFires;
    }
    for (const mpi::DiskFaultRule& df : config.fault.disk_faults) {
      can_fire = can_fire || df.at_lsn != mpi::kNeverFires;
    }
    ANNSIM_CHECK_MSG(!can_fire || config.result_timeout_ms > 0.0,
                     "fault injection without failure detection would hang the "
                     "master: set result_timeout_ms > 0");
    for (const mpi::KillRule& kill : config.fault.kills) {
      ANNSIM_CHECK_MSG(kill.rank >= 1 && kill.rank <= int(config.n_workers),
                       "fault.kills rank " << kill.rank
                                           << " must name a worker rank in [1, "
                                           << config.n_workers
                                           << "] (rank 0 is the master)");
    }
    for (const mpi::DiskFaultRule& df : config.fault.disk_faults) {
      ANNSIM_CHECK_MSG(df.rank >= 1 && df.rank <= int(config.n_workers),
                       "fault.disk_faults rank "
                           << df.rank << " must name a worker rank in [1, "
                           << config.n_workers << "] (rank 0 is the master)");
    }
    ANNSIM_CHECK_MSG(config.fault.disk_faults.empty() || !config.wal_dir.empty(),
                     "fault.disk_faults target the write-ahead log: set "
                     "wal_dir");
  }
  if (!config.wal_dir.empty()) {
    ANNSIM_CHECK_MSG(config.local_index == LocalIndexKind::kSegmented,
                     "wal_dir (durable writes) requires the segmented local "
                     "index — only segmented replicas accept replayed writes");
  }
  ANNSIM_CHECK_MSG(config.checkpoint_every_rounds >= 1,
                   "checkpoint_every_rounds must be nonzero (1 = every write "
                   "round)");
}

namespace {

/// Engine image magic, "ANIF": the image with the partitioner settings.
/// "ANIE" images, which lack them, fail on the magic.
constexpr std::uint32_t kEngineMagic = 0x414E4946;

/// The local index parameters every replica of `config` is built or
/// restored with.
LocalIndexParams local_index_params(const EngineConfig& config) {
  LocalIndexParams lp;
  lp.kind = config.local_index;
  lp.hnsw = config.hnsw;
  lp.ivfpq = config.ivfpq;
  lp.metric = config.hnsw.metric;
  lp.tree = config.partitioner.tree;
  lp.segment_delta_capacity = config.segment_delta_capacity;
  lp.quantize_frozen = config.quantize_frozen;
  lp.float_cache_fraction = config.float_cache_fraction;
  return lp;
}

}  // namespace

DistributedAnnEngine::DistributedAnnEngine(const data::Dataset* base,
                                           EngineConfig config)
    : base_(base), config_(std::move(config)) {
  ANNSIM_CHECK(base_ != nullptr);
  validate_engine_config(config_);
  ANNSIM_CHECK_MSG(base_->size() >= config_.n_workers * 2,
                   "dataset too small for the requested partition count");
}

DistributedAnnEngine::~DistributedAnnEngine() = default;

const vptree::PartitionTree& DistributedAnnEngine::router() const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  return *router_;
}

std::vector<std::size_t> DistributedAnnEngine::partition_sizes() const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  return build_stats_.partition_sizes;
}

// ---------------------------------------------------------------- worlds ---
//
// Every operation is one control message per worker rank plus the calling
// thread as rank 0 (DESIGN.md §4.15). The message names the operation;
// worker_op is the one loop body that runs it.

namespace {

enum class OpKind : std::uint8_t { kBuild, kSearch, kWrite, kCompact, kHeal };

/// One replica a heal streams from a surviving worker to a revived one.
struct HealTransfer {
  std::size_t src;
  std::size_t dst;
  PartitionId partition;
};

/// A control message under construction: the kind, then its parameters.
BinaryWriter op_message(OpKind kind) {
  BinaryWriter w;
  w.reserve(64);
  w.write(kind);
  return w;
}

}  // namespace

void DistributedAnnEngine::worker_op(mpi::Comm& world,
                                     std::span<const std::byte> op) {
  BinaryReader rd(op);
  const auto kind = rd.read<OpKind>();
  switch (kind) {
    case OpKind::kBuild:
      worker_build(world);
      return;
    case OpKind::kSearch: {
      const auto k = rd.read<std::uint32_t>();
      const BatchBounds bounds{rd.read<std::uint64_t>(), config_.n_workers,
                               rd.read<std::uint64_t>()};
      if (config_.strategy == DispatchStrategy::kMultipleOwner) {
        worker_search_owner(world, k, bounds);
      } else {
        worker_search(world, k, bounds);
      }
      return;
    }
    case OpKind::kWrite:
      worker_write(world, rd.read_vector<char>());
      return;
    case OpKind::kCompact:
      worker_compact(world, rd.read_vector<char>());
      return;
    case OpKind::kHeal:
      worker_heal(world, rd);
      return;
  }
  ANNSIM_CHECK_MSG(false, "unknown engine operation " << int(kind));
}

// ----------------------------------------------------------------- build ---

/// What the build operation's ranks share: the KD baseline's master-built
/// row assignment, and one output slot per worker.
struct DistributedAnnEngine::BuildRound {
  std::vector<std::vector<std::size_t>> master_rows;  ///< KD only
  std::vector<double> vp_seconds, hnsw_seconds, repl_seconds;
  std::vector<std::size_t> part_sizes;
};

void DistributedAnnEngine::build() {
  ANNSIM_CHECK_MSG(!router_.has_value(), "engine already built");
  // Re-validate at build time: the config travels through save/load and
  // default construction, so the constructor check alone is not airtight.
  validate_engine_config(config_);
  const std::size_t P = config_.n_workers;
  const std::size_t n = base_->size();
  workers_.clear();
  workers_.resize(P);
  partition_last_lsn_.assign(P, 0);

  BuildRound round;
  round.vp_seconds.assign(P, 0.0);
  round.hnsw_seconds.assign(P, 0.0);
  round.repl_seconds.assign(P, 0.0);
  round.part_sizes.assign(P, 0);
  std::vector<std::byte> tree_bytes;

  WallTimer total_timer;
  // The KD baseline's router is built here, at the master, over the whole
  // corpus (PANDA builds it distributedly; DESIGN.md records the
  // substitution); each worker then takes its partition's rows.
  std::optional<vptree::PartitionBuildResult> master_tree;
  if (config_.partitioner.tree == vptree::PartitionTreeKind::kKdTree) {
    WallTimer tree_timer;
    vptree::PartitionTreeParams tp;
    tp.target_partitions = P;
    tp.metric = config_.hnsw.metric;
    master_tree.emplace(vptree::PartitionTree::build(
        *base_, tp, vptree::PartitionTreeKind::kKdTree));
    round.master_rows.resize(P);
    for (std::size_t i = 0; i < n; ++i) {
      round.master_rows[master_tree->assignment[i]].push_back(i);
    }
    round.vp_seconds.assign(P, tree_timer.seconds());
  }

  // Construction is fault-free: the injector arms after it.
  admin_lane_->build = &round;
  (void)run_op(*admin_lane_, op_message(OpKind::kBuild).take(), nullptr,
               [&](mpi::Comm& world) {
                 (void)world.split(0);
                 // Master: receive the VP tree worker 0 assembled (a KD tree
                 // is built).
                 if (!master_tree.has_value()) {
                   mpi::Message m = world.recv(1, kTagTree);
                   tree_bytes = std::move(m.payload);
                 }
               });

  if (master_tree.has_value()) {
    router_.emplace(std::move(master_tree->tree));
  } else {
    BinaryReader rd(tree_bytes);
    router_.emplace(vptree::PartitionTree::deserialize(rd));
  }

  build_stats_.total_seconds = total_timer.seconds();
  build_stats_.vp_tree_seconds =
      *std::max_element(round.vp_seconds.begin(), round.vp_seconds.end());
  build_stats_.hnsw_seconds =
      *std::max_element(round.hnsw_seconds.begin(), round.hnsw_seconds.end());
  build_stats_.replication_seconds =
      *std::max_element(round.repl_seconds.begin(), round.repl_seconds.end());
  build_stats_.partition_sizes = std::move(round.part_sizes);
  admin_lane_->build = nullptr;

  health_.reset(P);
  // Streamed inserts draw ids from one monotone counter that starts past
  // every build-corpus id, so a live insert can never shadow a built row.
  GlobalId max_id = 0;
  for (const GlobalId id : base_->ids()) max_id = std::max(max_id, id);
  next_stream_id_ = base_->size() == 0 ? 0 : max_id + 1;
  open_wals();         // no-op unless wal_dir is configured
  save_checkpoints();  // no-op unless checkpoint_dir is configured
}

void DistributedAnnEngine::worker_build(mpi::Comm& world) {
  BuildRound& round = *admin_lane_->build;
  const std::size_t P = config_.n_workers;
  const std::size_t n = base_->size();
  mpi::Comm grp = world.split(1);
  const std::size_t w = std::size_t(world.rank()) - 1;
  Replica primary;
  if (!round.master_rows.empty()) {
    primary.data =
        std::make_unique<data::Dataset>(base_->subset(round.master_rows[w]));
  } else {
    // Initial equi-partition of D across the P worker cores (§IV).
    data::Dataset slice = base_->slice(w * n / P, (w + 1) * n / P);

    // Algorithms 1-2: distributed VP-tree construction.
    PartitionerResult res =
        build_distributed_vp_tree(grp, std::move(slice), config_.partitioner,
                                  config_.hnsw.metric);
    round.vp_seconds[w] = res.build_seconds;
    ANNSIM_CHECK(res.partition_id == PartitionId(w));
    if (grp.rank() == 0) {
      world.send(0, kTagTree, res.serialized_tree);
    }
    primary.data = std::make_unique<data::Dataset>(std::move(res.partition));
  }

  // Local index over the owned partition (HNSW by default; §VI allows
  // any algorithm here).
  WallTimer hnsw_timer;
  LocalIndexParams lp = local_index_params(config_);
  lp.hnsw.seed = Rng(config_.seed).split(w).next();
  if (config_.parallel_local_build && config_.threads_per_worker > 1) {
    // The paper's hybrid model: each MPI process builds its local index
    // with an OpenMP-style thread team.
    ThreadPool pool(config_.threads_per_worker);
    primary.index = build_local_index(primary.data.get(), lp, &pool);
  } else {
    primary.index = build_local_index(primary.data.get(), lp);
  }
  round.hnsw_seconds[w] = hnsw_timer.seconds();
  round.part_sizes[w] = primary.data->size();
  if (config_.local_index == LocalIndexKind::kSegmented) {
    // A segmented index owns a copy of its rows, so keep the replica's
    // Dataset an empty husk (dim only) rather than storing them twice;
    // replication and checkpointing ship the index image, which is
    // self-contained.
    primary.data = std::make_unique<data::Dataset>(0, base_->dim());
  }

  // §IV-C2: replicate partition w onto its workgroup
  // W_w = {w, w+1, ..., w+r-1 mod P}. Only the pack, send and decode work
  // is timed: recv waits for the peer's own local build to end.
  double repl_s = 0.0;
  const std::size_t r = config_.replication;
  if (r > 1) {
    WallTimer pack_timer;
    BinaryWriter pack;
    pack.write(PartitionId(w));
    pack.write_vector(pack_dataset(*primary.data));
    pack.write_vector(primary.index->to_bytes());
    for (std::size_t j = 1; j < r; ++j) {
      const int dest = int((w + j) % P);
      grp.send(dest, kTagReplica, pack.bytes());
    }
    repl_s += pack_timer.seconds();
    for (std::size_t j = 1; j < r; ++j) {
      mpi::Message m = grp.recv(mpi::kAnySource, kTagReplica);
      WallTimer decode_timer;
      BinaryReader rd(m.payload);
      const auto pid = rd.read<PartitionId>();
      const auto data_bytes = rd.read_vector<std::byte>();
      const auto index_bytes = rd.read_vector<std::byte>();
      Replica rep;
      rep.data = std::make_unique<data::Dataset>(
          unpack_dataset(data_bytes, base_->dim()));
      rep.index = local_index_from_bytes(index_bytes, rep.data.get(),
                                         local_index_params(config_));
      workers_[w].emplace(pid, std::move(rep));
      repl_s += decode_timer.seconds();
    }
  }
  round.repl_seconds[w] = repl_s;
  workers_[w].emplace(PartitionId(w), std::move(primary));
}

// ------------------------------------------------------------------ plan ---

std::vector<std::vector<PartitionId>> DistributedAnnEngine::plan_queries(
    const data::Dataset& queries) const {
  const auto& tree = router();
  std::vector<std::vector<PartitionId>> plans(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    plans[q] = tree.route_topk(queries.row(q),
                               std::min(config_.n_probe, tree.n_partitions()))
                   .partitions;
  }
  return plans;
}

// ---------------------------------------------------------------- search ---

data::KnnResults DistributedAnnEngine::search(
    const data::Dataset& queries, std::size_t k, std::size_t ef,
    SearchStats* stats, const QueryDoneFn& on_query_done,
    std::span<const EffortOverride> efforts) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK(queries.dim() == router_->dim());
  ANNSIM_CHECK(k >= 1);
  ANNSIM_CHECK_MSG(efforts.empty() || efforts.size() == queries.size(),
                   "efforts must be empty or hold one override per query (got "
                       << efforts.size() << " for " << queries.size()
                       << " queries)");
  ANNSIM_CHECK_MSG(
      efforts.empty() || config_.strategy == DispatchStrategy::kMasterWorker,
      "per-query effort overrides require the master-worker dispatch strategy");

  data::KnnResults results(queries.size());
  SearchStats st;
  st.jobs_per_worker.assign(config_.n_workers, 0);

  WallTimer timer;
  // One injector is shared across every operation so fault state (op
  // budgets, death flags, the step clock) persists between batches: a rank
  // killed in batch n is still silent in batch n+1 unless heal() revived it.
  auto injector = shared_injector();
  if (config_.fault.enabled()) {
    // Log the seed so any chaos run is replayable bit-for-bit.
    ANNSIM_INFO("fault injection armed: seed=" << config_.fault.seed
                << " drop_p=" << config_.fault.drop_probability
                << " delay_p=" << config_.fault.delay_probability
                << " kills=" << config_.fault.kills.size()
                << " result_timeout_ms=" << config_.result_timeout_ms);
  }

  // Liveness carries over from previous batches: already-dead workers are
  // skipped at dispatch (and not re-counted in workers_failed).
  const std::size_t P = config_.n_workers;
  if (health_.workers.size() != P) health_.reset(P);
  std::vector<char> alive(P, 1);
  for (std::size_t w = 0; w < P; ++w) alive[w] = health_.alive(w) ? 1 : 0;
  std::vector<std::uint64_t> heartbeats(P, 0);

  {
    // Reads of the worker stores (every rank thread touches workers_) run
    // under the shared topology lock so a concurrent write/compact round can
    // interleave but heal()'s store mutations cannot.
    std::shared_lock topology(sync_->topology);
    BinaryWriter op = op_message(OpKind::kSearch);
    op.write(std::uint32_t(k));
    op.write(std::uint64_t(queries.size()));
    op.write(std::uint64_t(queries.dim()));
    const bool one_sided = config_.one_sided && !config_.exact_routing;
    st.traffic = run_op(
        *search_lane_, op.bytes(), injector,
        [&](mpi::Comm& world) {
          if (config_.strategy == DispatchStrategy::kMultipleOwner) {
            master_search_owner(world, queries, k, ef, results, st,
                                on_query_done);
          } else {
            master_search(world, queries, k, ef, results, st, on_query_done,
                          injector.get(), alive, heartbeats, efforts);
          }
        },
        [&] {
          if (one_sided) {
            prepare_result_window(SlotLayout{k, P}.window_bytes(queries.size()));
          }
        });
  }

  // Fold the batch's outcome into the persistent health record — after the
  // operation, when every worker is back in its loop and touching worker
  // stores cannot race. A newly dead worker's in-memory replicas die with
  // it; heal() restores them from checkpoint or from a surviving peer.
  if (config_.result_timeout_ms > 0.0 &&
      config_.strategy == DispatchStrategy::kMasterWorker) {
    std::unique_lock topology(sync_->topology);  // workers_[w].clear() below
    for (std::size_t w = 0; w < P; ++w) {
      health_.workers[w].heartbeats += heartbeats[w];
      if (!alive[w] &&
          health_.workers[w].state == recovery::WorkerState::kAlive) {
        health_.workers[w].state = recovery::WorkerState::kDead;
        ++health_.workers[w].deaths;
        workers_[w].clear();
      }
    }
  }

  st.total_seconds = timer.seconds();
  if (stats != nullptr) *stats = st;
  return results;
}

// ---------------------------------------------------------------- writes ---
//
// Streaming mutability (segmented local indexes only). A write round is a
// small SPMD phase on the same simulated runtime as searches: the master
// routes each row through the VP-tree to its nearest partition, ships one
// WriteBatch + one DeleteBatch to every live worker on the reserved write
// tags, and collects one WriteAck each. Rounds serialize behind
// sync_->write_api and hold the topology lock shared, so search batches
// (also shared) overlap freely while heal() (exclusive) can never observe a
// half-applied round.

std::vector<char> DistributedAnnEngine::write_plane_alive(
    const mpi::FaultInjector* injector) const {
  // ClusterHealth belongs to the search plane's thread; the injector's death
  // flags are atomics and give the same answer sooner (a kill is visible
  // here before any batch observes the silence).
  std::vector<char> alive(config_.n_workers, 1);
  if (injector != nullptr) {
    for (std::size_t w = 0; w < config_.n_workers; ++w) {
      alive[w] = injector->is_dead(int(w) + 1) ? 0 : 1;
    }
  }
  return alive;
}

WriteStats DistributedAnnEngine::insert(const data::Dataset& rows) {
  return apply_writes(&rows, {});
}

WriteStats DistributedAnnEngine::remove(std::span<const GlobalId> ids) {
  return apply_writes(nullptr, ids);
}

WriteStats DistributedAnnEngine::apply_writes(
    const data::Dataset* rows, std::span<const GlobalId> deletes) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK_MSG(config_.local_index == LocalIndexKind::kSegmented,
                   "streaming writes need local_index=segmented; '"
                       << local_index_kind_name(config_.local_index)
                       << "' replicas are frozen");
  ANNSIM_CHECK_MSG(config_.strategy == DispatchStrategy::kMasterWorker,
                   "streaming writes support master-worker dispatch only");
  if (rows != nullptr) {
    ANNSIM_CHECK_MSG(rows->dim() == router_->dim(),
                     "insert dim " << rows->dim() << " != index dim "
                                   << router_->dim());
  }

  std::lock_guard api(sync_->write_api);
  const std::size_t P = config_.n_workers;
  const std::size_t r = config_.replication;
  WriteStats ws;

  auto injector = shared_injector();
  const std::vector<char> alive = write_plane_alive(injector.get());

  // Route every row to its nearest partition and fan it out to the live
  // members of that partition's workgroup {p, ..., p+r-1 mod P} — the same
  // round-robin assignment dispatch uses, so reads find the row wherever
  // they fail over.
  std::vector<WriteBatch> batches(P);
  // Which workers each row was shipped to — after the round, a row counts as
  // acked (durable, with a WAL) iff at least one of them acked.
  std::vector<std::vector<std::size_t>> row_targets;
  if (rows != nullptr) {
    ws.assigned_ids.reserve(rows->size());
    row_targets.resize(rows->size());
    for (std::size_t i = 0; i < rows->size(); ++i) {
      const GlobalId id = next_stream_id_++;
      // One LSN per logical row: every replica logs the same sequence
      // number, so checkpoint watermarks compare across workers.
      const std::uint64_t lsn = next_lsn_++;
      ws.assigned_ids.push_back(id);
      const PartitionId p = router_->route_topk(rows->row(i), 1).partitions[0];
      const float* v = rows->row(i);
      bool delivered = false;
      for (std::size_t j = 0; j < r; ++j) {
        const std::size_t w = (std::size_t(p) + j) % P;
        if (!alive[w]) continue;
        batches[w].rows.push_back(
            {p, id, lsn, std::vector<float>(v, v + rows->dim())});
        row_targets[i].push_back(w);
        delivered = true;
      }
      if (delivered) {
        partition_last_lsn_[std::size_t(p)] =
            std::max(partition_last_lsn_[std::size_t(p)], lsn);
      } else {
        ++ws.dropped_rows;
      }
    }
  }
  DeleteBatch dels;
  dels.ids.assign(deletes.begin(), deletes.end());
  dels.lsns.reserve(dels.ids.size());
  for (std::size_t i = 0; i < dels.ids.size(); ++i) {
    dels.lsns.push_back(next_lsn_++);
  }
  if (!dels.lsns.empty()) {
    // Deletes broadcast to every workgroup — any partition may hold a hit,
    // so the whole ring advances to the round's last delete LSN.
    for (auto& last : partition_last_lsn_) {
      last = std::max(last, dels.lsns.back());
    }
  }
  const std::vector<std::byte> del_bytes = encode_delete_batch(dels);

  std::vector<WriteAck> acks(P);
  std::vector<char> acked(P, 0);
  {
    std::shared_lock topology(sync_->topology);
    BinaryWriter op = op_message(OpKind::kWrite);
    op.write_vector(alive);
    (void)run_op(*admin_lane_, op.bytes(), injector, [&](mpi::Comm& world) {
      // Both tags always go out (possibly empty) so the worker's recv
      // pairing is fixed regardless of round content.
      for (std::size_t w = 0; w < P; ++w) {
        if (!alive[w]) continue;
        (void)world.isend_reserved(int(w) + 1, kTagInsert,
                                   encode_write_batch(batches[w]));
        (void)world.isend_reserved(int(w) + 1, kTagDelete, del_bytes);
      }
      for (std::size_t w = 0; w < P; ++w) {
        if (!alive[w]) continue;
        // A missing ack means the worker died mid-round; the search plane
        // will observe the silence and fold the death.
        const auto m = recv_write_plane(world, int(w) + 1, kTagWriteAck);
        if (!m.has_value()) continue;
        acks[w] = decode_write_ack(m->payload);
        acked[w] = 1;
      }
    });
  }

  for (std::size_t w = 0; w < P; ++w) {
    if (acked[w]) {
      ws.inserted_replicas += acks[w].inserted;
      ws.erased_replicas += acks[w].erased;
      ws.max_delta_fill = std::max(ws.max_delta_fill, acks[w].max_delta_fill);
    } else if (alive[w]) {
      ws.all_acked = false;  // targeted but silent: died (or crashed) mid-round
    }
  }
  ws.row_acked.assign(ws.assigned_ids.size(), 0);
  for (std::size_t i = 0; i < row_targets.size(); ++i) {
    for (const std::size_t w : row_targets[i]) {
      if (acked[w]) {
        ws.row_acked[i] = 1;
        break;
      }
    }
  }
  // Keep durable snapshots current so a heal mid-stream replays the writes
  // (incremental: frozen segment files are skipped, only deltas rewrite).
  // With a WAL the un-checkpointed tail is replayable, so the cadence can
  // stretch to every Nth round.
  if (!config_.checkpoint_dir.empty() &&
      ++rounds_since_checkpoint_ >= config_.checkpoint_every_rounds) {
    save_checkpoints();
    rounds_since_checkpoint_ = 0;
  }
  return ws;
}

std::optional<mpi::Message> DistributedAnnEngine::recv_write_plane(
    mpi::Comm& world, int source, mpi::Tag tag) const {
  // A concurrent chaos search can advance the kill clock mid-round, and a
  // dead rank is silent on every tag (reliable ones included) — so with an
  // injector armed every blocking recv becomes recv_for.
  if (injector_ == nullptr) return world.recv(source, tag);
  const auto round_timeout = std::chrono::microseconds(std::llround(
      std::max(config_.result_timeout_ms, 1000.0) * 1000.0));
  return world.recv_for(source, tag, round_timeout);
}

bool DistributedAnnEngine::commit_wal(std::size_t w) {
  recovery::WriteLog* wal = w < wals_.size() ? wals_[w].get() : nullptr;
  if (wal == nullptr) return true;
  // Durability point: group-commit the round's log frames (one fsync)
  // before acking. A failed commit — disk fault fired — means the worker
  // dies silently; the master's recv_for observes the missing ack exactly
  // like an MPI death.
  mpi::FaultInjector* inj = injector_.get();
  const int wal_rank = int(w) + 1;
  return wal->commit(
      [inj, wal_rank](std::uint64_t lsn) -> std::optional<mpi::DiskFaultKind> {
        if (inj == nullptr) return std::nullopt;
        return inj->disk_fault_at(wal_rank, lsn);
      });
}

void DistributedAnnEngine::worker_write(mpi::Comm& world,
                                        const std::vector<char>& alive) {
  const std::size_t w = std::size_t(world.rank()) - 1;
  if (!alive[w]) return;
  const auto mi = recv_write_plane(world, 0, kTagInsert);
  if (!mi.has_value()) return;  // killed mid-round
  const auto md = recv_write_plane(world, 0, kTagDelete);
  if (!md.has_value()) return;
  const WriteBatch batch = decode_write_batch(mi->payload);
  const DeleteBatch dele = decode_delete_batch(md->payload);
  WriteAck ack;
  WorkerStore& store = workers_[w];
  recovery::WriteLog* wal = w < wals_.size() ? wals_[w].get() : nullptr;
  for (const auto& row : batch.rows) {
    auto it = store.find(row.partition);
    // A missing partition means an observed death cleared this store and
    // heal() has not run yet; the row lands on the other replicas.
    if (it == store.end()) continue;
    it->second.index->insert(row.vec, row.id);
    if (wal != nullptr) {
      wal->append_insert(row.lsn, row.partition, row.id, row.vec);
    }
    ++ack.inserted;
  }
  for (std::size_t d = 0; d < dele.ids.size(); ++d) {
    const GlobalId id = dele.ids[d];
    for (auto& [pid, rep] : store) {
      if (rep.index->erase(id)) {
        if (wal != nullptr) wal->append_delete(dele.lsns[d], pid, id);
        ++ack.erased;
      }
    }
  }
  for (const auto& [pid, rep] : store) {
    ack.max_delta_fill =
        std::max(ack.max_delta_fill, std::uint64_t(rep.index->delta_fill()));
  }
  // Round watermark: a mark frame at the highest LSN this worker was sent,
  // even when none of its frames reached it (rows for cleared partitions,
  // deletes with no local hit). The synced mark is the worker's proof of
  // currency — heal() compares last_synced_lsn() against each partition's
  // last issued LSN to decide whether this log can replay the tail or the
  // replica must stream from a peer.
  if (wal != nullptr) {
    std::uint64_t round_mark = 0;
    for (const auto& row : batch.rows) {
      round_mark = std::max(round_mark, row.lsn);
    }
    if (!dele.lsns.empty()) {
      round_mark = std::max(round_mark, dele.lsns.back());
    }
    if (round_mark > 0) {
      wal->append_compact_mark(round_mark, PartitionId(0));
    }
  }
  if (!commit_wal(w)) return;  // acked ⇒ durable, so no ack here
  world.send_reserved(0, kTagWriteAck, encode_write_ack(ack));
}

std::uint64_t DistributedAnnEngine::compact() {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK_MSG(config_.local_index == LocalIndexKind::kSegmented,
                   "compact() needs local_index=segmented; '"
                       << local_index_kind_name(config_.local_index)
                       << "' has no delta tier");
  std::lock_guard api(sync_->write_api);
  const std::size_t P = config_.n_workers;

  auto injector = shared_injector();
  const std::vector<char> alive = write_plane_alive(injector.get());

  std::uint64_t total = 0;
  // One LSN for the whole compaction order: the compact-mark frames let
  // replay distinguish "records absorbed into a re-frozen segment" from a
  // genuinely missing tail.
  const std::uint64_t compact_lsn = next_lsn_++;
  BinaryWriter compact_payload;
  compact_payload.write(compact_lsn);
  {
    std::shared_lock topology(sync_->topology);
    BinaryWriter op = op_message(OpKind::kCompact);
    op.write_vector(alive);
    (void)run_op(*admin_lane_, op.bytes(), injector, [&](mpi::Comm& world) {
      for (std::size_t w = 0; w < P; ++w) {
        if (!alive[w]) continue;
        (void)world.isend_reserved(int(w) + 1, kTagCompact,
                                   compact_payload.bytes());
      }
      for (std::size_t w = 0; w < P; ++w) {
        if (!alive[w]) continue;
        const auto m = recv_write_plane(world, int(w) + 1, kTagWriteAck);
        if (!m.has_value()) continue;
        total += decode_write_ack(m->payload).compactions;
      }
    });
  }

  if (total > 0 && !config_.checkpoint_dir.empty()) save_checkpoints();
  return total;
}

void DistributedAnnEngine::worker_compact(mpi::Comm& world,
                                          const std::vector<char>& alive) {
  const std::size_t w = std::size_t(world.rank()) - 1;
  if (!alive[w]) return;
  const auto m = recv_write_plane(world, 0, kTagCompact);
  if (!m.has_value()) return;  // killed mid-round
  BinaryReader rd(m->payload);
  const auto order_lsn = rd.read<std::uint64_t>();
  WriteAck ack;
  recovery::WriteLog* wal = w < wals_.size() ? wals_[w].get() : nullptr;
  for (auto& [pid, rep] : workers_[w]) {
    // Single-threaded rebuild keeps compaction deterministic; searches
    // keep serving the old view until the hot-swap publish.
    if (rep.index->compact(nullptr)) {
      if (wal != nullptr) wal->append_compact_mark(order_lsn, pid);
      ++ack.compactions;
    }
  }
  if (!commit_wal(w)) return;
  world.send_reserved(0, kTagWriteAck, encode_write_ack(ack));
}

std::size_t DistributedAnnEngine::max_delta_fill() const {
  std::shared_lock topology(sync_->topology);
  std::size_t fill = 0;
  for (const WorkerStore& store : workers_) {
    for (const auto& [pid, rep] : store) {
      fill = std::max(fill, rep.index->delta_fill());
    }
  }
  return fill;
}

CompressionStats DistributedAnnEngine::compression_stats() const {
  std::shared_lock topology(sync_->topology);
  CompressionStats cs;
  for (const WorkerStore& store : workers_) {
    for (const auto& [pid, rep] : store) {
      const segment::SegmentedIndex* seg = rep.index->segmented();
      if (seg == nullptr) continue;
      const segment::SegmentedStats s = seg->stats();
      cs.quant_rows += s.quant_rows;
      cs.quant_resident_bytes += s.quant_resident_bytes;
      cs.quant_float_bytes += s.quant_float_bytes;
      cs.quant_cached_rows += s.quant_cached_rows;
      cs.rerank_exact += s.rerank_exact;
      cs.rerank_coded += s.rerank_coded;
    }
  }
  return cs;
}

// Algorithm 3 (baseline) / Algorithm 5 (replication): the master routine.
// One path serves both transports and every detection setting: a job table
// tracks each (query, partition) job, one collection loop feeds it from the
// transport seam, and one finalize reports every query with its coverage.
// `result_timeout_ms` is the failure-detection deadline. A finite one makes
// the loop declare dead the workers that stop making progress, fail their
// outstanding jobs over to live replicas of the same partition, and finalize
// queries that lose every replica as degraded partial results. 0 is an
// infinite deadline: every wait blocks and no job is ever retried.
void DistributedAnnEngine::master_search(
    mpi::Comm& world, const data::Dataset& queries, std::size_t k,
    std::size_t ef, data::KnnResults& results, SearchStats& stats,
    const QueryDoneFn& on_query_done, mpi::FaultInjector* fault,
    std::vector<char>& alive, std::vector<std::uint64_t>& heartbeats,
    std::span<const EffortOverride> efforts) {
  const std::size_t P = config_.n_workers;
  const std::size_t nq = queries.size();
  const auto& tree = *router_;
  const bool one_sided = config_.one_sided && !config_.exact_routing;
  const bool detect = config_.result_timeout_ms > 0.0;
  const SlotLayout layout{k, P};
  const BatchBounds bounds{nq, P, queries.dim()};
  const auto timeout = detection_timeout();
  using Clock = std::chrono::steady_clock;

  // The window outlives the batch; search() sized it and zeroed this
  // batch's slots before the workers heard of the batch.
  mpi::Window* win = one_sided ? &result_window(world) : nullptr;

  PhaseTimer route_t, dispatch_t, merge_t;

  // A batch that throws (a QueryDoneFn, a failed check) must still end, or
  // the world would wait on its workers forever: on unwind, close the
  // master's epoch and send every worker EOQ if it has not gone out yet.
  bool eoq_sent = false;
  bool epoch_open = false;
  struct EndOnUnwind {
    std::function<void()> end;
    int unwinding = std::uncaught_exceptions();
    ~EndOnUnwind() {
      if (std::uncaught_exceptions() > unwinding) end();
    }
  } end_on_unwind{[&] {
    try {
      if (epoch_open) win->unlock(0);
      for (std::size_t w = 0; w < P && !eoq_sent; ++w) {
        (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
      }
    } catch (...) {
      // The operation already fails with the first error.
    }
  }};

  // --- Algorithm 5 scaffolding: one round-robin pointer per workgroup
  // W_i = {p_i, p_{i+1 mod P}, ..., p_{i+r-1 mod P}}. Members declared dead
  // (this batch or any earlier one — `alive` is seeded from the engine's
  // ClusterHealth) are skipped; the first probe is the fault-free choice, so
  // a fault-free run dispatches identically whatever the deadline.
  std::vector<std::uint32_t> next(P, 0);
  // Brownout effort caps: a per-query override can shrink the beam width and
  // the routing fan-out, never widen them (both are min'd against the batch
  // defaults). Empty span = every query at full effort.
  auto query_ef = [&](std::uint32_t qid) -> std::uint32_t {
    if (!efforts.empty() && efforts[qid].ef != 0) {
      const auto cap = efforts[qid].ef;
      return ef == 0 ? cap : std::min(cap, std::uint32_t(ef));
    }
    return std::uint32_t(ef);
  };
  auto query_probes = [&](std::size_t qid) -> std::size_t {
    std::size_t n = std::min(config_.n_probe, P);
    if (!efforts.empty() && efforts[qid].max_probes != 0) {
      n = std::min(n, std::size_t(efforts[qid].max_probes));
    }
    return n;
  };
  const auto replication = std::uint32_t(config_.replication);
  // A member must be alive *and* actually hold the replica: a heal that
  // found a partition unrecoverable revives the worker without it.
  auto can_serve = [&](std::size_t member, PartitionId d) {
    return alive[member] && workers_[member].count(d) != 0;
  };
  // Jobs of each query sent to a live replica; every job of the query
  // (failover retries too) carries it, for the one-sided slot-full notice.
  std::vector<std::uint32_t> fanout(nq, 0);
  auto dispatch_job = [&](std::uint32_t qid, PartitionId d) -> int {
    for (std::uint32_t probe = 0; probe < replication; ++probe) {
      const std::size_t member = (d + next[d]) % P;
      next[d] = (next[d] + 1) % replication;
      if (!can_serve(member, d)) continue;
      QueryJob job;
      job.query_id = qid;
      job.partition = d;
      job.k = std::uint32_t(k);
      job.ef = query_ef(qid);
      job.reply_to = 0;
      job.fanout = fanout[qid];
      const float* qv = queries.row(qid);
      job.query.assign(qv, qv + queries.dim());
      ScopedPhase p(dispatch_t);
      (void)world.isend(int(member) + 1, kTagQuery, encode_query_job(job));
      return int(member);
    }
    return -1;  // no live replica hosts partition d
  };

  // --- the job table: one entry per (query, partition), flat per query.
  enum class JobState : char { kNone, kPending, kMerged, kAbandoned };
  struct Job {
    JobState state = JobState::kNone;
    bool retried = false;  ///< re-dispatched after its first assignee died
    int worker = -1;       ///< current assignee (worker id, not rank)
  };
  std::vector<Job> jobs(nq * P);
  auto job_at = [&](std::size_t q, PartitionId d) -> Job& {
    return jobs[q * P + d];
  };
  std::vector<std::uint32_t> planned(nq, 0);    // |F(q)|
  std::vector<std::uint32_t> remaining(nq, 0);  // pending jobs per query
  std::vector<std::uint32_t> searched(nq, 0);   // merged partitions per query
  std::vector<std::uint32_t> pending_per_worker(P, 0);
  std::uint64_t outstanding = 0;                // pending jobs in the batch
  std::vector<Clock::time_point> last_activity(P, Clock::now());
  // Liveness beacons: under a finite deadline every worker heartbeats on a
  // reliable tag, so the master notices a death even when the worker has no
  // outstanding jobs to time out on.
  std::vector<Clock::time_point> last_heartbeat(P, Clock::now());
  auto plan_job = [&](std::size_t q, PartitionId d) {
    ++planned[q];
    const int m = dispatch_job(std::uint32_t(q), d);
    // m < 0: every replica of d was dead before the batch started — the
    // partition cannot be searched and the query will finalize short.
    job_at(q, d) =
        Job{m >= 0 ? JobState::kPending : JobState::kAbandoned, false, m};
    if (m < 0) return;
    ++pending_per_worker[std::size_t(m)];
    ++remaining[q];
    ++outstanding;
  };
  // Plan q's jobs on `parts`, counting the ones a live replica can take
  // into fanout[q] before the first of them is sent.
  auto plan_jobs = [&](std::size_t q, std::span<const PartitionId> parts) {
    for (const PartitionId d : parts) {
      for (std::uint32_t j = 0; j < replication; ++j) {
        if (can_serve((d + j) % P, d)) {
          ++fanout[q];
          break;
        }
      }
    }
    for (const PartitionId d : parts) plan_job(q, d);
  };

  // --- finalize: the one place a query's answer and coverage are reported.
  // A query finalizes as soon as its answer is known, so `on_query_done`
  // streams completions in finish order rather than batch order — the
  // serving plane's latency signal. Two-sided: as its last partial lands,
  // once every plan is final (exact routing's second phase extends the
  // plans). One-sided: as its slot-full notice arrives, or a header sweep
  // finds its slot complete.
  stats.coverage.assign(nq, {});
  std::size_t finalized = 0;
  std::vector<char> answered(nq, 0);
  auto finalize = [&](std::size_t q, std::vector<Neighbor> neighbors) {
    ANNSIM_CHECK_MSG(!answered[q], "query " << q << " finalized twice");
    answered[q] = 1;
    results[q] = std::move(neighbors);
    const QueryCoverage cov{searched[q], planned[q]};
    stats.coverage[q] = cov;
    if (cov.degraded()) ++stats.degraded_queries;
    ++finalized;
    if (on_query_done) on_query_done(q, results[q], cov);
  };
  std::vector<TopK> acc;  // two-sided merge accumulators
  if (!one_sided) acc.assign(nq, TopK(k));
  bool plans_final = false;
  auto settle = [&](std::size_t q) {
    if (!one_sided && plans_final && remaining[q] == 0) {
      finalize(q, acc[q].take_sorted());
    }
  };
  auto complete = [&](std::size_t q, PartitionId d, Clock::time_point now) {
    Job& j = job_at(q, d);
    // Anything else is a late duplicate from a worker declared dead too
    // eagerly: the job completed elsewhere (or was abandoned).
    if (j.state != JobState::kPending) return false;
    j.state = JobState::kMerged;
    if (j.retried) ++stats.failovers;
    --pending_per_worker[std::size_t(j.worker)];
    last_activity[std::size_t(j.worker)] = now;
    ++searched[q];
    --remaining[q];
    --outstanding;
    return true;
  };

  // Declare worker `w` dead for the rest of the batch: fail each of its
  // pending jobs over to the next live replica of the partition; a job with
  // no live replica left is abandoned and its query completes degraded.
  auto declare_dead = [&](std::size_t w) {
    alive[w] = 0;
    ++stats.workers_failed;
    for (std::size_t q = 0; q < nq; ++q) {
      for (PartitionId d = 0; d < P; ++d) {
        Job& j = job_at(q, d);
        if (j.state != JobState::kPending || j.worker != int(w)) continue;
        const int m = dispatch_job(std::uint32_t(q), d);
        if (m >= 0) {
          j.worker = m;
          j.retried = true;
          ++stats.retries;
          ++pending_per_worker[std::size_t(m)];
          last_activity[std::size_t(m)] = Clock::now();  // fresh deadline
        } else {
          j.state = JobState::kAbandoned;
          --outstanding;
          if (--remaining[q] == 0) settle(q);
        }
      }
    }
    pending_per_worker[w] = 0;
  };
  // Both deadline checks are no-ops under an infinite deadline.
  auto drain_heartbeats = [&](Clock::time_point now) {
    while (detect && world.iprobe(mpi::kAnySource, kTagHeartbeat)) {
      const mpi::Message m = world.recv(mpi::kAnySource, kTagHeartbeat);
      const std::size_t w = std::size_t(m.source) - 1;
      ++heartbeats[w];
      last_heartbeat[w] = now;
    }
  };
  auto check_deadlines = [&](Clock::time_point now) {
    for (std::size_t w = 0; detect && w < P; ++w) {
      if (!alive[w]) continue;
      // Job-activity deadline: pending work with no visible progress. Kept
      // alongside the heartbeat deadline because an alive-but-drop-starved
      // worker heartbeats happily while its results never arrive.
      const bool jobs_stalled =
          pending_per_worker[w] > 0 && now - last_activity[w] >= timeout;
      // Heartbeat deadline: the liveness beacon went silent.
      const bool beacon_silent = now - last_heartbeat[w] >= timeout;
      if (jobs_stalled || beacon_silent) declare_dead(w);
    }
  };

  // One-sided: read q's slot once, feed each job its mask shows to the
  // table, check the mask against the table, and finalize. (A real MPI master
  // reads its exposed buffer directly; we go through get() so the C++ memory
  // model sees the same synchronisation the window's target lock provides.)
  auto finalize_slot = [&](std::size_t q, Clock::time_point now) {
    ScopedPhase p(merge_t);
    DecodedSlot slot = decode_slot(
        win->get(0, layout.slot_offset(q), layout.slot_bytes()), layout);
    std::uint32_t landed = 0;
    bool abandoned = false;
    for (PartitionId d = 0; d < P; ++d) {
      if (job_at(q, d).state == JobState::kNone) continue;
      if (slot.contains_partition(d)) {
        (void)complete(q, d, now);
        ++landed;
      }
      abandoned = abandoned || job_at(q, d).state == JobState::kAbandoned;
    }
    ANNSIM_CHECK_MSG(slot.merged_count == landed &&
                         (abandoned || landed == planned[q]),
                     "slot " << q << ": merged " << slot.merged_count
                             << ", mask shows " << landed << " of "
                             << planned[q] << " planned jobs");
    searched[q] = landed;
    finalize(q, std::move(slot.neighbors));
  };
  // Under a finite deadline: one pass over the unfinished slots' headers. It
  // credits per-job progress to the stall deadline, and answers each query
  // it finds complete — also one whose notice died with its sender.
  auto sweep_slots = [&](Clock::time_point now) {
    for (std::size_t q = 0; q < nq; ++q) {
      if (remaining[q] == 0) continue;
      const SlotHeader hdr = decode_slot_header(
          win->get(0, layout.slot_offset(q), layout.header_bytes()), layout);
      for (PartitionId d = 0; d < P; ++d) {
        if (hdr.contains_partition(d)) (void)complete(q, d, now);
      }
      if (remaining[q] == 0 && searched[q] == planned[q]) finalize_slot(q, now);
    }
  };

  // --- the transport seam: wait for result progress and feed each job it
  // shows complete to the table. Two-sided: one result message. One-sided:
  // one slot-full notice, whose query is answered at once; under a finite
  // deadline the wait is bounded and the slot headers are swept at most once
  // per poll.
  const auto poll = std::max(timeout / 8, std::chrono::microseconds(100));
  auto last_sweep = Clock::now();
  auto await_results = [&] {
    if (!one_sided) {
      auto msg = recv_by_deadline(world, mpi::kAnySource, kTagResult);
      if (!msg.has_value()) return;
      ScopedPhase p(merge_t);
      LocalResult r = decode_local_result(msg->payload, bounds);
      if (!complete(r.query_id, r.partition, Clock::now())) return;
      acc[r.query_id].merge(r.neighbors);
      settle(r.query_id);
      return;
    }
    // Same rule as recv_by_deadline: an infinite deadline blocks.
    auto msg = detect ? world.recv_for(mpi::kAnySource, kTagSlotFull, poll)
                      : world.recv(mpi::kAnySource, kTagSlotFull);
    const auto now = Clock::now();
    if (msg.has_value()) {
      const std::uint32_t q = decode_slot_full(msg->payload, bounds);
      // The sweep may have answered it first.
      if (!answered[q]) finalize_slot(q, now);
    }
    if (detect && now - last_sweep >= poll) {
      last_sweep = now;
      sweep_slots(now);
    }
  };
  auto collect = [&] {
    const auto arm_time = Clock::now();
    std::fill(last_activity.begin(), last_activity.end(), arm_time);
    std::fill(last_heartbeat.begin(), last_heartbeat.end(), arm_time);
    if (one_sided) {
      win->lock_shared(0);
      epoch_open = true;
    }
    while (outstanding > 0) {
      await_results();
      const auto now = Clock::now();
      drain_heartbeats(now);
      check_deadlines(now);
    }
    if (one_sided) {
      win->unlock(0);
      epoch_open = false;
    }
  };

  if (!config_.exact_routing) {
    // Single-pass F(q): best-first top-n_probe partitions.
    for (std::size_t q = 0; q < nq; ++q) {
      // The engine's logical step = queries dispatched: KillRule::at_step
      // rules fire as the clock sweeps past their trigger.
      if (fault != nullptr) fault->advance_step();
      route_t.start();
      auto plan = tree.route_topk(queries.row(q), query_probes(q));
      route_t.stop();
      plan_jobs(q, plan.partitions);
    }
  } else {
    // Two-phase exact F(q): nearest partition first, then every partition
    // intersecting the ball at the observed k-th distance.
    std::vector<PartitionId> first(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      route_t.start();
      first[q] = tree.route_nearest(queries.row(q));
      route_t.stop();
      plan_jobs(q, {&first[q], 1});
    }
    collect();  // phase 1 (two-sided); plans are not final yet
    for (std::size_t q = 0; q < nq; ++q) {
      route_t.start();
      auto parts = tree.route_ball(queries.row(q), acc[q].worst_dist());
      route_t.stop();
      std::erase(parts, first[q]);
      plan_jobs(q, parts);
    }
  }
  plans_final = true;
  // A query can have nothing in flight already: its phase-1 job was its
  // whole plan, or it lost every live replica at dispatch (workers dead
  // since an earlier batch). Finalize it now, or no result would visit it.
  for (std::size_t q = 0; q < nq; ++q) settle(q);

  // EOQ goes out as soon as no job can still need a retry: right after
  // dispatch under an infinite deadline, after collection under a finite
  // one, so live workers can serve failover jobs until the batch ends.
  auto send_eoq_when_final = [&] {
    if (eoq_sent || (detect && outstanding > 0)) return;
    eoq_sent = true;
    for (std::size_t w = 0; w < P; ++w) {
      ScopedPhase p(dispatch_t);
      (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
    }
  };
  send_eoq_when_final();
  collect();
  send_eoq_when_final();

  // --- completion notices (also carry the Fig 4(b) per-process job counts).
  // A notice missing its deadline means the worker died after its last
  // result; every job is merged or abandoned by now, so nothing fails over.
  for (const std::size_t w : collect_done_notices(world, alive, stats)) {
    declare_dead(w);
  }

  if (one_sided) {
    // Every accumulate has landed, so each slot's mask is final. Answer the
    // queries no notice or sweep answered: degraded ones — read only now, so
    // merges that landed after their worker was (too eagerly) declared dead
    // still count — and any whose notice died with its sender.
    win->lock_shared(0);
    epoch_open = true;
    const auto now = Clock::now();
    for (std::size_t q = 0; q < nq; ++q) {
      if (!answered[q]) finalize_slot(q, now);
    }
    win->unlock(0);
    epoch_open = false;
  }
  ANNSIM_CHECK(finalized == nq);

  std::uint64_t total_jobs = 0;
  for (const std::uint32_t n : planned) total_jobs += n;
  stats.master_route_seconds = route_t.total_seconds();
  stats.master_dispatch_seconds = dispatch_t.total_seconds();
  stats.master_merge_seconds = merge_t.total_seconds();
  stats.total_jobs = total_jobs;
  stats.mean_partitions_per_query = nq ? double(total_jobs) / double(nq) : 0.0;
}

std::chrono::microseconds DistributedAnnEngine::detection_timeout() const {
  return std::chrono::microseconds(
      std::int64_t(config_.result_timeout_ms * 1000.0));
}

std::optional<mpi::Message> DistributedAnnEngine::recv_by_deadline(
    mpi::Comm& world, int source, mpi::Tag tag) const {
  // An infinite deadline is the blocking recv, never recv_for with a huge
  // duration: under a schedule controller a timed wait is a timeout choice
  // point, and only blocking waits take part in deadlock detection.
  if (config_.result_timeout_ms <= 0.0) return world.recv(source, tag);
  return world.recv_for(source, tag, detection_timeout());
}

std::vector<std::size_t> DistributedAnnEngine::collect_done_notices(
    mpi::Comm& world, const std::vector<char>& alive,
    SearchStats& stats) const {
  // Per source rather than a wildcard: a dead worker's notice was eaten by
  // the injector, and a wildcard might wait on it forever.
  std::vector<std::size_t> silent;
  for (std::size_t w = 0; w < alive.size(); ++w) {
    if (!alive[w]) continue;
    const auto m = recv_by_deadline(world, int(w) + 1, kTagDone);
    if (!m.has_value()) {
      silent.push_back(w);
      continue;
    }
    BinaryReader rd(m->payload);
    const auto notice = rd.read<DoneNotice>();
    stats.jobs_per_worker[w] = notice.jobs_processed;
    stats.worker_compute_seconds += notice.compute_seconds;
    stats.worker_comm_seconds += notice.comm_seconds;
    stats.master_route_seconds += notice.route_seconds;  // owner-side routing
  }
  return silent;
}

// Algorithm 4: the worker routine of master-worker dispatch.
void DistributedAnnEngine::worker_search(mpi::Comm& world, std::size_t k,
                                         const BatchBounds& bounds) {
  const bool one_sided = config_.one_sided && !config_.exact_routing;
  mpi::Window* win = nullptr;
  if (one_sided) {
    win = &result_window(world);
    // Passive-target access epoch at the master, shared mode (§IV-C1): one
    // epoch for the whole batch, shared by this worker's thread team.
    win->lock_shared(0);
  }
  const DoneNotice notice =
      run_job_loop(world, /*job_source=*/0, kTagResult, win, k, bounds, {});
  if (one_sided) win->unlock(0);

  BinaryWriter w;
  w.write(notice);
  world.send_reserved(0, kTagDone, w.bytes());
}

// Algorithm 4's job loop, shared by both dispatch policies: a team of
// threads, each polling with MPI_Test and terminating through the shared
// Done flag once one of them takes the End of Queries.
DoneNotice DistributedAnnEngine::run_job_loop(
    mpi::Comm& world, int job_source, mpi::Tag result_tag, mpi::Window* win,
    std::size_t k, const BatchBounds& bounds,
    const std::function<void()>& rank_duty) {
  const std::size_t me = std::size_t(world.rank()) - 1;
  const SlotLayout layout{k, config_.n_workers};
  const auto merge_op = knn_slot_merge(layout);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> jobs{0};
  std::mutex agg_mu;
  double compute_s = 0.0, comm_s = 0.0;
  // A one-thread team runs inline on the rank thread itself. This is what
  // keeps the worker schedulable under annsim::explore: a spawned team
  // member would be an untracked helper racing around the controller,
  // whereas the rank thread parks at every choice point.
  const bool inline_team = config_.threads_per_worker == 1 && !rank_duty;

  // Liveness beacon (finite deadline only): the team beats on a reliable
  // tag between jobs and while it waits for one. The fabric never drops a
  // beat, so the only way the master stops hearing this worker is the
  // worker actually dying — which is exactly what the injector does to a
  // killed rank's sends, reliable or not.
  using Clock = std::chrono::steady_clock;
  const bool beacon = config_.result_timeout_ms > 0.0;
  const auto beat_every =
      std::max(detection_timeout() / 4, std::chrono::microseconds(100));
  std::atomic<Clock::rep> next_beat{Clock::now().time_since_epoch().count()};
  auto maybe_beat = [&] {
    if (!beacon) return;
    const Clock::rep now = Clock::now().time_since_epoch().count();
    Clock::rep due = next_beat.load(std::memory_order_relaxed);
    if (now < due) return;
    const Clock::rep next =
        now + std::chrono::duration_cast<Clock::duration>(beat_every).count();
    // One beat per interval, whichever team member gets there first.
    if (!next_beat.compare_exchange_strong(due, next)) return;
    (void)world.isend_reserved(0, kTagHeartbeat, {});
  };

  auto thread_main = [&] {
    double my_compute = 0.0, my_comm = 0.0;
    std::vector<std::byte> prev;  // the slot as each accumulate found it
    for (;;) {
      maybe_beat();
      // A tag set, not a wildcard: the worker names exactly what it is
      // willing to consume, so a stray control message can never be
      // swallowed as a query (annsim::check's wildcard-recv rule).
      mpi::Request req = world.irecv_tags(job_source, {kTagQuery, kTagEoq});
      bool cancelled = false;
      if (inline_team && !beacon) {
        req.wait();  // the lone thread just blocks until the next job
      } else if (inline_team) {
        while (!req.wait_for(beat_every)) maybe_beat();
      } else {
        Backoff backoff;
        while (!req.test()) {
          if (done.load(std::memory_order_acquire)) {
            if (req.cancel()) {
              cancelled = true;
              break;
            }
            // Completed concurrently with the flag: fall through and take it.
          }
          maybe_beat();
          backoff.pause();
        }
      }
      if (cancelled) break;
      mpi::Message m = req.take();
      if (m.tag == kTagEoq) {
        done.store(true, std::memory_order_release);
        break;
      }

      const QueryJob job = decode_query_job(m.payload, bounds);
      const auto it = workers_[me].find(job.partition);
      ANNSIM_CHECK_MSG(it != workers_[me].end(),
                       "worker " << me << " has no replica of partition "
                                 << job.partition);
      WallTimer tc;
      auto local = it->second.index->search(job.query.data(), job.k, job.ef);
      my_compute += tc.seconds();

      WallTimer tm;
      if (win != nullptr) {
        prev.clear();  // stays empty when the fabric drops the accumulate
        win->get_accumulate(0, layout.slot_offset(job.query_id),
                            encode_slot_update(local, layout, job.partition),
                            merge_op, &prev);
        // The fresh merge that brings the slot to the query's fanout
        // completed it: ring the master, which answers the query at once.
        // A duplicate (partition bit already set) merged nothing.
        if (!prev.empty()) {
          const SlotHeader before = decode_slot_header(prev, layout);
          if (!before.contains_partition(job.partition) &&
              before.merged_count + 1 == job.fanout) {
            (void)world.isend(0, kTagSlotFull, encode_slot_full(job.query_id));
          }
        }
      } else {
        LocalResult r;
        r.query_id = job.query_id;
        r.partition = job.partition;
        r.neighbors = std::move(local);
        (void)world.isend(int(job.reply_to), result_tag,
                          encode_local_result(r));
      }
      my_comm += tm.seconds();
      jobs.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard lk(agg_mu);
    compute_s += my_compute;
    comm_s += my_comm;
  };

  if (inline_team) {
    thread_main();
  } else {
    std::vector<std::thread> team;
    team.reserve(config_.threads_per_worker);
    for (std::size_t t = 0; t < config_.threads_per_worker; ++t) {
      team.emplace_back(thread_main);
    }
    if (rank_duty) rank_duty();
    for (auto& t : team) t.join();
  }

  DoneNotice notice;
  notice.jobs_processed = jobs.load();
  notice.compute_seconds = compute_s;
  notice.comm_seconds = comm_s;
  return notice;
}

// ------------------------------------------------------------ recovery ----

std::size_t DistributedAnnEngine::live_replicas(PartitionId p) const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (health_.workers.size() == workers_.size() && !health_.alive(w)) continue;
    if (workers_[w].count(p) != 0) ++n;
  }
  return n;
}

std::vector<PartitionId> DistributedAnnEngine::under_replicated_partitions()
    const {
  std::vector<PartitionId> out;
  for (std::size_t p = 0; p < config_.n_workers; ++p) {
    if (live_replicas(PartitionId(p)) < config_.replication) {
      out.push_back(PartitionId(p));
    }
  }
  return out;
}

void DistributedAnnEngine::save_checkpoints() const {
  if (config_.checkpoint_dir.empty()) return;
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  // One checkpointer at a time (a background compaction and a heal may both
  // want to snapshot), reading a stable topology.
  std::lock_guard ckpt(sync_->checkpoint);
  std::shared_lock topology(sync_->topology);
  const recovery::CheckpointStore store(config_.checkpoint_dir);
  const std::size_t P = config_.n_workers;
  // A dead worker's in-memory replica froze at the moment of death and may
  // be missing writes (and, worse, tombstones) the surviving copy kept
  // absorbing — snapshotting it would let a later heal-from-checkpoint
  // resurrect deleted ids. Prefer copies on live workers; fall back to a
  // dead host only when no live copy exists.
  std::shared_ptr<mpi::FaultInjector> inj;
  {
    std::lock_guard lock(sync_->injector);
    inj = injector_;
  }
  const std::vector<char> alive = write_plane_alive(inj.get());
  // Committed per-partition watermarks from this pass, for post-commit WAL GC.
  std::vector<std::uint64_t> part_watermark(P, 0);
  std::vector<char> part_committed(P, 0);
  for (std::size_t p = 0; p < P; ++p) {
    const Replica* rep = nullptr;
    std::size_t rep_w = P;
    const Replica* stale = nullptr;
    std::size_t stale_w = P;
    for (std::size_t j = 0; j < config_.replication && rep == nullptr; ++j) {
      const std::size_t w = (p + j) % P;
      const auto it = workers_[w].find(PartitionId(p));
      if (it == workers_[w].end()) continue;
      if (alive[w]) {
        rep = &it->second;
        rep_w = w;
      } else if (stale == nullptr) {
        stale = &it->second;
        stale_w = w;
      }
    }
    if (rep == nullptr) {
      rep = stale;
      rep_w = stale_w;
    }
    if (rep == nullptr) continue;  // every copy lost; nothing to snapshot
    recovery::CheckpointMeta meta;
    meta.partition = std::uint32_t(p);
    meta.dim = router_->dim();
    meta.index_kind = std::uint8_t(config_.local_index);
    if (const segment::SegmentedIndex* seg = rep->index->segmented()) {
      // Segmented replicas checkpoint incrementally: immutable segment
      // files are written once and skipped thereafter; only the small
      // delta (plus tombstones) rewrites per round.
      //
      // The watermark is the snapshot source's last *synced* LSN: the
      // worker applies a record before logging it and logs before syncing,
      // so synced ⇒ applied ⇒ in this snapshot. Under-claiming is safe
      // (replay is idempotent); over-claiming would lose records, and the
      // apply-log-sync order rules it out.
      std::uint64_t watermark = 0;
      if (rep_w < wals_.size() && wals_[rep_w] != nullptr) {
        watermark = wals_[rep_w]->last_synced_lsn();
      }
      meta.count = rep->index->size();
      const auto parts = seg->snapshot_parts();
      store.save_segmented(meta, parts.header, parts.segments, parts.delta,
                           watermark);
      part_watermark[p] = watermark;
      part_committed[p] = 1;
    } else {
      meta.count = rep->data->size();
      store.save(meta, pack_dataset(*rep->data), rep->index->to_bytes());
    }
  }
  // Post-commit WAL GC: a worker's log file is droppable once every
  // partition the worker hosts has a committed checkpoint at or past the
  // file's last record. An unsnapshotted hosted partition (watermark 0)
  // blocks GC for that worker entirely — conservative, and only reachable
  // when every copy of a partition is already lost.
  for (std::size_t w = 0; w < P && w < wals_.size(); ++w) {
    if (wals_[w] == nullptr) continue;
    std::uint64_t gc_mark = ~std::uint64_t{0};
    bool hosts_any = false;
    for (const auto& [pid, hosted] : workers_[w]) {
      hosts_any = true;
      gc_mark = std::min(
          gc_mark, part_committed[pid] ? part_watermark[pid] : std::uint64_t{0});
    }
    if (hosts_any && gc_mark > 0) (void)wals_[w]->gc(gc_mark);
  }
}

recovery::HealReport DistributedAnnEngine::heal() {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  // Exclusive: healing rebuilds worker stores in place, which must not
  // overlap a search/write/compact round reading them.
  std::unique_lock topology(sync_->topology);
  WallTimer timer;
  recovery::HealReport report;
  const std::size_t P = config_.n_workers;
  if (health_.workers.size() != P) health_.reset(P);
  const std::vector<std::size_t> dead = health_.dead_workers();
  if (dead.empty()) {
    report.seconds = timer.seconds();
    return report;
  }

  // 1. Resurrect the ranks: clear death flags and disarm fired kill rules so
  //    the revived worker isn't re-killed by its own schedule next batch.
  for (const std::size_t w : dead) {
    if (injector_ != nullptr) injector_->revive(int(w) + 1);
    // A disk fault may have left the worker's WAL with a torn or corrupt
    // tail; recover() truncates back to the last valid frame and clears the
    // crashed flag so the log accepts appends again.
    if (w < wals_.size() && wals_[w] != nullptr) {
      report.wal_truncated_tail_bytes += wals_[w]->recover();
    }
  }

  // 2. Replicas each revived worker must get back: worker w belongs to the
  //    workgroups of partitions {w, w-1, ..., w-r+1 mod P} (Algorithm 5).
  struct RestoreJob {
    std::size_t worker;
    PartitionId partition;
  };
  std::vector<RestoreJob> plan;
  for (const std::size_t w : dead) {
    for (std::size_t j = 0; j < config_.replication; ++j) {
      const auto p = PartitionId((w + P - j) % P);
      if (workers_[w].count(p) == 0) plan.push_back({w, p});
    }
  }

  const LocalIndexParams lp = local_index_params(config_);

  // 3. Prefer the checkpoint store: a durable snapshot restores locally with
  //    no cluster traffic at all (the LANNS model — reload, don't rebuild).
  std::vector<RestoreJob> stream_plan;
  // True when a surviving, reliably-reachable peer still hosts the
  // partition — the same scan the streaming phase uses to pick a source.
  const auto usable_peer = [&](const RestoreJob& job) {
    for (std::size_t v = 0; v < P; ++v) {
      if (v == job.worker || workers_[v].count(job.partition) == 0) continue;
      if (!health_.alive(v)) continue;
      if (injector_ != nullptr && !injector_->allow_reliable_op(int(v) + 1)) {
        continue;
      }
      return true;
    }
    return false;
  };
  if (!config_.checkpoint_dir.empty()) {
    const recovery::CheckpointStore store(config_.checkpoint_dir);
    for (const RestoreJob& job : plan) {
      if (!store.has(job.partition)) {
        stream_plan.push_back(job);
        continue;
      }
      // Checkpoint + own-WAL replay only reconstructs what this worker was
      // alive to log. Writes the cluster acked after it died — late inserts,
      // and deletes whose tombstones would otherwise vanish, resurrecting
      // the rows — exist only on the surviving peers' replicas. Replay the
      // local log when it covers the partition's last issued LSN (it is
      // "longer" than anything a peer could add); otherwise stream the
      // current state from a peer, keeping the stale checkpoint only as a
      // last resort when every peer is gone.
      if (job.worker < wals_.size() && wals_[job.worker] != nullptr &&
          job.partition < partition_last_lsn_.size() &&
          wals_[job.worker]->last_synced_lsn() <
              partition_last_lsn_[job.partition] &&
          usable_peer(job)) {
        stream_plan.push_back(job);
        continue;
      }
      recovery::CheckpointStore::LoadedPartition loaded;
      try {
        loaded = store.load(job.partition);
      } catch (const Error& e) {
        // A flipped byte or truncated file in the on-disk checkpoint
        // (checksum mismatch, short read) must not sink the replica:
        // name the failing partition and fall back to streaming it from
        // a surviving peer instead.
        ANNSIM_WARN("checkpoint for partition "
                    << job.partition << " is corrupt (" << e.what()
                    << "); falling back to peer-stream heal");
        stream_plan.push_back(job);
        continue;
      }
      ANNSIM_CHECK_MSG(loaded.meta.dim == router_->dim(),
                       "checkpoint dim " << loaded.meta.dim
                                         << " does not match the router's "
                                         << router_->dim());
      ANNSIM_CHECK_MSG(
          loaded.meta.index_kind == std::uint8_t(config_.local_index),
          "checkpoint index kind does not match the engine config");
      Replica rep;
      rep.data = std::make_unique<data::Dataset>(
          unpack_dataset(loaded.data_bytes, router_->dim()));
      rep.index = local_index_from_bytes(loaded.index_bytes, rep.data.get(), lp);
      workers_[job.worker].emplace(job.partition, std::move(rep));
      ++report.replicas_restored_from_checkpoint;
      // The checkpoint only covers records up to its committed watermark;
      // replay the worker's own WAL tail past it (filtered to this
      // partition) so acked writes that landed between the last checkpoint
      // and the crash survive. Peer-streamed replicas skip this — the
      // surviving peer is already current.
      report.wal_replayed_records += replay_wal_into_worker(
          job.worker, loaded.wal_watermark, job.partition);
    }
  } else {
    stream_plan = std::move(plan);
  }

  // 4. No checkpoint: stream each missing replica from a surviving copy over
  //    the p2p data plane (kTagReplica, reliable — re-replication completes
  //    even while drop_probability is eating data-plane traffic).
  std::vector<HealTransfer> transfers;
  for (const RestoreJob& job : stream_plan) {
    std::size_t src = P;  // sentinel: no usable source
    for (std::size_t v = 0; v < P && src == P; ++v) {
      if (v == job.worker || workers_[v].count(job.partition) == 0) continue;
      if (!health_.alive(v)) continue;
      // A source whose pending kill trigger already tripped would silently
      // eat the stream; probe the reliable gate before trusting it.
      if (injector_ != nullptr && !injector_->allow_reliable_op(int(v) + 1)) {
        continue;
      }
      src = v;
    }
    if (src == P) {
      ++report.replicas_unrecoverable;  // partition lost for good
      continue;
    }
    transfers.push_back({src, job.worker, job.partition});
  }
  if (!transfers.empty()) {
    BinaryWriter op = op_message(OpKind::kHeal);
    op.write(std::uint64_t(transfers.size()));
    for (const HealTransfer& tr : transfers) {
      op.write(std::uint64_t(tr.src));
      op.write(std::uint64_t(tr.dst));
      op.write(tr.partition);
    }
    // The master only waits: the streams run worker to worker.
    (void)run_op(*admin_lane_, op.bytes(), shared_injector(),
                 [](mpi::Comm&) {});
    report.replicas_restored_from_peer = transfers.size();
  }

  // 5. Mark the workers alive again; the next batch's dispatch re-runs the
  //    round-robin workgroup assignment over the restored copies naturally.
  for (const std::size_t w : dead) {
    health_.workers[w].state = recovery::WorkerState::kAlive;
    ++health_.workers[w].revivals;
    ++report.workers_revived;
  }

  report.seconds = timer.seconds();
  ANNSIM_INFO(recovery::to_string(report));
  return report;
}

void DistributedAnnEngine::worker_heal(mpi::Comm& world, BinaryReader& rd) {
  std::vector<HealTransfer> transfers(rd.read<std::uint64_t>());
  for (HealTransfer& tr : transfers) {
    tr.src = rd.read<std::uint64_t>();
    tr.dst = rd.read<std::uint64_t>();
    tr.partition = rd.read<PartitionId>();
  }
  const auto stream_timeout = std::chrono::microseconds(std::max<std::int64_t>(
      std::int64_t(config_.result_timeout_ms * 1000.0), 1'000'000));
  const LocalIndexParams lp = local_index_params(config_);
  const std::size_t me = std::size_t(world.rank()) - 1;
  // Sends first (they never block in-process), then receives in plan order
  // — per-source FIFO makes the pairing deterministic.
  for (const HealTransfer& tr : transfers) {
    if (tr.src != me) continue;
    const Replica& rep = workers_[me].at(tr.partition);
    BinaryWriter pack;
    pack.write(tr.partition);
    pack.write_vector(pack_dataset(*rep.data));
    pack.write_vector(rep.index->to_bytes());
    world.send(int(tr.dst) + 1, kTagReplica, pack.bytes());
  }
  for (const HealTransfer& tr : transfers) {
    if (tr.dst != me) continue;
    auto m = world.recv_for(int(tr.src) + 1, kTagReplica, stream_timeout);
    ANNSIM_CHECK_MSG(m.has_value(), "replica stream of partition "
                                        << tr.partition << " from worker "
                                        << tr.src << " timed out");
    BinaryReader pr(m->payload);
    const auto pid = pr.read<PartitionId>();
    ANNSIM_CHECK(pid == tr.partition);
    const auto data_bytes = pr.read_vector<std::byte>();
    const auto index_bytes = pr.read_vector<std::byte>();
    Replica rep;
    rep.data = std::make_unique<data::Dataset>(
        unpack_dataset(data_bytes, router_->dim()));
    rep.index = local_index_from_bytes(index_bytes, rep.data.get(), lp);
    workers_[me].emplace(pid, std::move(rep));
  }
}

// ------------------------------------------------------------ durability ---

void DistributedAnnEngine::open_wals() {
  if (config_.wal_dir.empty()) return;
  const std::size_t P = config_.n_workers;
  if (wals_.size() == P) return;  // already attached
  recovery::WalOptions opt;
  opt.group_commit = config_.wal_group_commit;
  wals_.clear();
  wals_.reserve(P);
  for (std::size_t w = 0; w < P; ++w) {
    const auto dir = std::filesystem::path(config_.wal_dir) /
                     ("worker_" + std::to_string(w));
    wals_.push_back(std::make_unique<recovery::WriteLog>(dir.string(), opt));
  }
}

void DistributedAnnEngine::enable_wal(const std::string& dir,
                                      bool group_commit) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK_MSG(!dir.empty(), "enable_wal: directory must be non-empty");
  ANNSIM_CHECK_MSG(config_.local_index == LocalIndexKind::kSegmented,
                   "the write-ahead log requires the segmented local index");
  std::lock_guard write_api(sync_->write_api);
  std::unique_lock topology(sync_->topology);
  config_.wal_dir = dir;
  config_.wal_group_commit = group_commit;
  wals_.clear();
  open_wals();
  // Replay anything a previous process left behind (no-op on fresh dirs):
  // records past the current LSN edge re-enter the replicas idempotently.
  const std::uint64_t edge = next_lsn_ > 0 ? next_lsn_ - 1 : 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    (void)replay_wal_into_worker(w, edge);
  }
}

bool DistributedAnnEngine::contains(GlobalId id) const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  std::shared_lock topology(sync_->topology);
  for (const WorkerStore& store : workers_) {
    for (const auto& [pid, rep] : store) {
      const segment::SegmentedIndex* seg = rep.index->segmented();
      if (seg != nullptr && seg->contains(id)) return true;
    }
  }
  return false;
}

std::size_t DistributedAnnEngine::replay_wal_into_worker(
    std::size_t w, std::uint64_t after_lsn,
    std::optional<PartitionId> only_partition) {
  if (w >= wals_.size() || wals_[w] == nullptr) return 0;
  const std::vector<recovery::WalRecord> tail = wals_[w]->read_tail(after_lsn);
  if (tail.empty()) return 0;
  WorkerStore& store = workers_[w];
  std::size_t replayed = 0;
  for (const recovery::WalRecord& rec : tail) {
    // Advance the global streams past everything the log proves was acked,
    // even for records we skip below — a fresh write must never reuse an
    // LSN or a global id that a replayed record already owns.
    next_lsn_ = std::max(next_lsn_, rec.lsn + 1);
    if (rec.type != recovery::WalRecordType::kCompactMark &&
        rec.partition < partition_last_lsn_.size()) {
      partition_last_lsn_[rec.partition] =
          std::max(partition_last_lsn_[rec.partition], rec.lsn);
    }
    if (only_partition.has_value() && PartitionId(rec.partition) != *only_partition) {
      continue;
    }
    switch (rec.type) {
      case recovery::WalRecordType::kInsert: {
        next_stream_id_ = std::max(next_stream_id_, rec.id + 1);
        ++replayed;
        auto it = store.find(PartitionId(rec.partition));
        if (it == store.end()) break;  // replica lost; peers carry the row
        const segment::SegmentedIndex* seg = it->second.index->segmented();
        // Idempotent by global id: a record at or below the snapshot's
        // watermark (or replayed twice) is already live in the replica.
        if (seg != nullptr && seg->contains(rec.id)) break;
        it->second.index->insert(rec.vec, rec.id);
        break;
      }
      case recovery::WalRecordType::kDelete: {
        ++replayed;
        auto it = store.find(PartitionId(rec.partition));
        // erase() is naturally idempotent: a second pass is a miss.
        if (it != store.end()) (void)it->second.index->erase(rec.id);
        break;
      }
      case recovery::WalRecordType::kCompactMark:
        break;  // ordering mark only; compaction state rebuilds lazily
    }
  }
  return replayed;
}

// ----------------------------------------------------------- persistence ---

void DistributedAnnEngine::save(const std::string& path) const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  std::shared_lock topology(sync_->topology);
  BinaryWriter w;
  w.write(kEngineMagic);
  w.write(std::uint64_t(config_.n_workers));
  w.write(std::uint64_t(config_.replication));
  w.write(std::uint64_t(config_.n_probe));
  w.write(std::uint8_t(config_.one_sided ? 1 : 0));
  w.write(std::uint8_t(config_.exact_routing ? 1 : 0));
  w.write(std::uint8_t(config_.strategy == DispatchStrategy::kMultipleOwner));
  w.write(std::uint64_t(config_.threads_per_worker));
  w.write(std::uint8_t(config_.local_index));
  w.write(std::uint8_t(config_.partitioner.tree));
  w.write(std::uint64_t(config_.partitioner.vantage_candidates));
  w.write(std::uint64_t(config_.partitioner.vantage_sample));
  w.write(config_.partitioner.seed);
  w.write(std::uint64_t(config_.hnsw.M));
  w.write(std::uint64_t(config_.hnsw.ef_construction));
  w.write(std::uint64_t(config_.hnsw.ef_search));
  w.write(config_.hnsw.level_mult);
  w.write(config_.hnsw.seed);
  w.write(std::int32_t(config_.hnsw.metric));
  w.write(config_.seed);
  w.write(std::uint64_t(config_.ivfpq.nlist));
  w.write(std::uint64_t(config_.ivfpq.nprobe));
  w.write(std::uint64_t(config_.ivfpq.pq.m));
  w.write(std::uint64_t(config_.ivfpq.pq.ks));
  w.write(std::uint64_t(config_.ivfpq.pq.train_iters));
  w.write(config_.ivfpq.pq.seed);
  w.write(std::uint64_t(config_.ivfpq.coarse_iters));
  w.write(config_.ivfpq.seed);
  w.write(std::uint64_t(config_.segment_delta_capacity));
  w.write(std::uint8_t(config_.quantize_frozen ? 1 : 0));
  w.write(config_.float_cache_fraction);
  w.write(next_stream_id_);  // id stream survives save/load, never reused
  w.write(next_lsn_);        // LSN stream too: WAL replay resumes past it

  BinaryWriter tree;
  router_->serialize(tree);
  w.write_vector(tree.take());

  w.write(std::uint64_t(workers_.size()));
  for (const auto& store : workers_) {
    w.write(std::uint64_t(store.size()));
    for (const auto& [pid, rep] : store) {
      w.write(pid);
      w.write_vector(pack_dataset(*rep.data));
      w.write_vector(rep.index->to_bytes());
    }
  }

  // Build stats travel along so a loaded engine reports sane metadata.
  w.write(build_stats_.total_seconds);
  w.write(build_stats_.vp_tree_seconds);
  w.write(build_stats_.hnsw_seconds);
  w.write(build_stats_.replication_seconds);
  w.write_vector(build_stats_.partition_sizes);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ANNSIM_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            std::streamsize(w.size()));
  ANNSIM_CHECK(out.good());
}

DistributedAnnEngine DistributedAnnEngine::load(
    const std::string& path, const std::string& checkpoint_dir,
    const std::string& wal_dir) {
  std::ifstream in(path, std::ios::binary);
  ANNSIM_CHECK_MSG(in.good(), "cannot open for reading: " << path);
  in.seekg(0, std::ios::end);
  std::vector<std::byte> bytes(std::size_t(in.tellg()));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()), std::streamsize(bytes.size()));
  ANNSIM_CHECK(in.good());

  BinaryReader r(bytes);
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == kEngineMagic,
                   "bad engine file magic (an image older than the current "
                   "format, or not an engine file)");
  DistributedAnnEngine eng;
  eng.config_.n_workers = r.read<std::uint64_t>();
  eng.config_.replication = r.read<std::uint64_t>();
  eng.config_.n_probe = r.read<std::uint64_t>();
  eng.config_.one_sided = r.read<std::uint8_t>() != 0;
  eng.config_.exact_routing = r.read<std::uint8_t>() != 0;
  eng.config_.strategy = r.read<std::uint8_t>() != 0
                             ? DispatchStrategy::kMultipleOwner
                             : DispatchStrategy::kMasterWorker;
  eng.config_.threads_per_worker = r.read<std::uint64_t>();
  eng.config_.local_index = LocalIndexKind(r.read<std::uint8_t>());
  eng.config_.partitioner.tree =
      vptree::PartitionTreeKind(r.read<std::uint8_t>());
  eng.config_.partitioner.vantage_candidates = r.read<std::uint64_t>();
  eng.config_.partitioner.vantage_sample = r.read<std::uint64_t>();
  eng.config_.partitioner.seed = r.read<std::uint64_t>();
  eng.config_.hnsw.M = r.read<std::uint64_t>();
  eng.config_.hnsw.ef_construction = r.read<std::uint64_t>();
  eng.config_.hnsw.ef_search = r.read<std::uint64_t>();
  eng.config_.hnsw.level_mult = r.read<double>();
  eng.config_.hnsw.seed = r.read<std::uint64_t>();
  eng.config_.hnsw.metric = simd::Metric(r.read<std::int32_t>());
  eng.config_.seed = r.read<std::uint64_t>();
  eng.config_.ivfpq.nlist = r.read<std::uint64_t>();
  eng.config_.ivfpq.nprobe = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.m = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.ks = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.train_iters = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.seed = r.read<std::uint64_t>();
  eng.config_.ivfpq.coarse_iters = r.read<std::uint64_t>();
  eng.config_.ivfpq.seed = r.read<std::uint64_t>();
  eng.config_.segment_delta_capacity = r.read<std::uint64_t>();
  eng.config_.quantize_frozen = r.read<std::uint8_t>() != 0;
  eng.config_.float_cache_fraction = r.read<double>();
  eng.next_stream_id_ = r.read<GlobalId>();
  eng.next_lsn_ = r.read<std::uint64_t>();
  // The file is as untrusted as any caller: hold the decoded config to the
  // constructor's rules before anything sizes itself from it.
  validate_engine_config(eng.config_);

  auto tree_bytes = r.read_vector<std::byte>();
  BinaryReader tr(tree_bytes);
  eng.router_.emplace(vptree::PartitionTree::deserialize(tr));
  ANNSIM_CHECK_MSG(eng.router_->n_partitions() == eng.config_.n_workers,
                   "engine file router has " << eng.router_->n_partitions()
                                             << " partitions for "
                                             << eng.config_.n_workers
                                             << " workers");

  const auto n_workers = r.read<std::uint64_t>();
  ANNSIM_CHECK(n_workers == eng.config_.n_workers);
  eng.workers_.resize(n_workers);
  eng.partition_last_lsn_.assign(n_workers, 0);
  const LocalIndexParams lp = local_index_params(eng.config_);
  for (auto& store : eng.workers_) {
    const auto n_replicas = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_replicas; ++i) {
      const auto pid = r.read<PartitionId>();
      const auto data_bytes = r.read_vector<std::byte>();
      const auto index_bytes = r.read_vector<std::byte>();
      Replica rep;
      rep.data = std::make_unique<data::Dataset>(
          unpack_dataset(data_bytes, eng.router_->dim()));
      rep.index = local_index_from_bytes(index_bytes, rep.data.get(), lp);
      store.emplace(pid, std::move(rep));
    }
  }

  eng.build_stats_.total_seconds = r.read<double>();
  eng.build_stats_.vp_tree_seconds = r.read<double>();
  eng.build_stats_.hnsw_seconds = r.read<double>();
  eng.build_stats_.replication_seconds = r.read<double>();
  eng.build_stats_.partition_sizes = r.read_vector<std::size_t>();
  ANNSIM_CHECK_MSG(r.exhausted(), "trailing bytes in engine file");

  eng.health_.reset(eng.config_.n_workers);
  eng.config_.checkpoint_dir = checkpoint_dir;
  if (!wal_dir.empty()) {
    // Re-attach the WALs and replay any records past the engine file's LSN
    // edge: writes acked after the save() but before the crash live only in
    // the logs, and the ack contract says they must come back.
    ANNSIM_CHECK_MSG(eng.config_.local_index == LocalIndexKind::kSegmented,
                     "wal_dir requires the segmented local index");
    eng.config_.wal_dir = wal_dir;
    eng.open_wals();
    const std::uint64_t edge = eng.next_lsn_ > 0 ? eng.next_lsn_ - 1 : 0;
    for (std::size_t w = 0; w < eng.workers_.size(); ++w) {
      (void)eng.replay_wal_into_worker(w, edge);
    }
  }
  eng.save_checkpoints();  // no-op without a checkpoint dir
  return eng;
}

}  // namespace annsim::core
