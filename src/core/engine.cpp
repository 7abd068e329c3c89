#include "annsim/core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <type_traits>

#include "annsim/common/backoff.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/log.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/core/dataset_transfer.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/recovery/checkpoint.hpp"
#include "annsim/recovery/durable_file.hpp"
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
  ANNSIM_CHECK_MSG(config.one_sided,
                   "two-sided result returns are not run by the engine: every "
                   "answer returns through the one-sided result window, and "
                   "two-sided returns are modelled in the search DES "
                   "(des::SearchSimConfig::one_sided, §IV-C1)");
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
    ANNSIM_CHECK_MSG(!config.exact_routing,
                     "result_timeout_ms (failure detection) does not support "
                     "exact_routing: its header sweep cannot start a query's "
                     "second phase");
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
      // k, then the operation's result slots and the query dimension.
      const auto k = rd.read<std::uint32_t>();
      const BatchBounds bounds{rd.read<std::uint64_t>(), config_.n_workers,
                               rd.read<std::uint64_t>()};
      worker_search(world, k, bounds);
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

namespace {

/// search()'s source: the whole batch in the first dispatch round, in query
/// order, each answer into the caller's results.
class BatchSource final : public QuerySource {
 public:
  BatchSource(const data::Dataset& queries,
              std::span<const EffortOverride> efforts,
              data::KnnResults& results, std::vector<QueryCoverage>& coverage,
              const QueryDoneFn& on_done)
      : queries_(queries),
        efforts_(efforts),
        results_(results),
        coverage_(coverage),
        on_done_(on_done) {}

  bool pull(std::size_t free, std::vector<StreamQuery>& out,
            Clock::time_point& /*wake_at*/) override {
    const std::size_t end = std::min(queries_.size(), next_ + free);
    for (; next_ < end; ++next_) {
      out.push_back({queries_.row_span(next_), next_,
                     efforts_.empty() ? EffortOverride{} : efforts_[next_]});
    }
    return next_ < queries_.size();
  }

  void done(std::uint64_t token, std::vector<Neighbor>&& result,
            const QueryCoverage& coverage) override {
    results_[token] = std::move(result);
    coverage_[token] = coverage;
    if (on_done_) on_done_(token, results_[token], coverage);
  }

 private:
  const data::Dataset& queries_;
  std::span<const EffortOverride> efforts_;
  data::KnnResults& results_;
  std::vector<QueryCoverage>& coverage_;
  const QueryDoneFn& on_done_;
  std::size_t next_ = 0;
};

}  // namespace

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

  data::KnnResults results(queries.size());
  // An empty batch still runs one operation, on one idle slot.
  const std::size_t slots = std::max<std::size_t>(queries.size(), 1);
  std::vector<QueryCoverage> coverage(queries.size());
  BatchSource source(queries, efforts, results, coverage, on_query_done);
  SearchStats st = stream(source, k, slots, ef);
  st.coverage = std::move(coverage);
  if (stats != nullptr) *stats = std::move(st);
  return results;
}

void DistributedAnnEngine::wake_stream() {
  std::lock_guard lock(door_->mu);
  if (door_->master == nullptr || door_->wake_pending) return;
  door_->wake_pending = true;
  // Sent under the door's lock, so a closing master that finds
  // wake_pending set knows the message is already in its mailbox.
  (void)door_->master->isend_reserved(0, kTagWake, {});
}

SearchStats DistributedAnnEngine::stream(QuerySource& source, std::size_t k,
                                         std::size_t slots, std::size_t ef) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK(k >= 1);
  ANNSIM_CHECK_MSG(slots >= 1, "a query stream needs at least one slot");
  SearchStats st;
  st.jobs_per_worker.assign(config_.n_workers, 0);

  WallTimer timer;
  // One injector is shared across every operation so fault state (op
  // budgets, death flags, the step clock) persists between operations: a
  // rank killed in one stays silent in the next unless heal() revived it.
  auto injector = shared_injector();
  if (config_.fault.enabled()) {
    // Log the seed so any chaos run is replayable bit-for-bit.
    ANNSIM_INFO("fault injection armed: seed=" << config_.fault.seed
                << " drop_p=" << config_.fault.drop_probability
                << " delay_p=" << config_.fault.delay_probability
                << " kills=" << config_.fault.kills.size()
                << " result_timeout_ms=" << config_.result_timeout_ms);
  }

  // Liveness carries over from previous operations: already-dead workers
  // are skipped at dispatch (and not re-counted in workers_failed).
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
    op.write(std::uint64_t(slots));
    op.write(std::uint64_t(router_->dim()));
    st.traffic = run_op(
        *search_lane_, op.bytes(), injector,
        [&](mpi::Comm& world) {
          master_stream(world, source, k, slots, ef, st, injector.get(), alive,
                        heartbeats);
        },
        [&] { prepare_result_window(SlotLayout{k, P}.window_bytes(slots)); });
  }

  // Fold the operation's outcome into the persistent health record — after
  // it, when every worker is back in its loop and touching worker stores
  // cannot race. A newly dead worker's in-memory replicas die with it;
  // heal() restores them from checkpoint or from a surviving peer.
  if (config_.result_timeout_ms > 0.0) {
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
  return st;
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

// Algorithm 3 (baseline) / Algorithm 5 (replication): the master routine, as
// one stream loop (DESIGN.md §4.15). Up to `slots` queries are in flight.
// Each holds a result slot and a row of the job table, both recycled once
// its answer is out, and is named by its stream sequence number, which the
// next occupant of its slot does not share. A round pulls what the source
// has for the free slots, routes and dispatches it, then waits once for
// progress: a slot-full notice, a wake from the source, the source's
// `wake_at`, or under a finite deadline the poll. Every answer returns
// through the one-sided result window (§IV-C1). One finalize reports every
// query with its coverage as soon as its answer is known.
// `result_timeout_ms` is the failure-detection deadline. A finite one makes the loop declare dead the workers that stop making
// progress, fail their outstanding jobs over to live replicas of the same
// partition, stop admitting so the stream drains and ends, and finalize
// queries that lose every replica as degraded partial results. 0 is an
// infinite deadline: every wait for progress blocks and no job is retried.
void DistributedAnnEngine::master_stream(
    mpi::Comm& world, QuerySource& source, std::size_t k, std::size_t slots,
    std::size_t ef, SearchStats& stats, mpi::FaultInjector* fault,
    std::vector<char>& alive, std::vector<std::uint64_t>& heartbeats) {
  const std::size_t P = config_.n_workers;
  const auto& tree = *router_;
  const bool detect = config_.result_timeout_ms > 0.0;
  const SlotLayout layout{k, P};
  const BatchBounds bounds{slots, P, tree.dim()};
  const auto timeout = detection_timeout();
  using Clock = std::chrono::steady_clock;

  // The window outlives the operation; stream() sized it. Stamp each
  // slot with its first occupant (seq = slot) before any job goes out.
  mpi::Window& win = result_window(world);
  const std::span<std::byte> region = win.local_data();
  for (std::size_t s = 0; s < slots; ++s) {
    init_slot(region.subspan(layout.slot_offset(s), layout.slot_bytes()),
              layout, s);
  }

  PhaseTimer route_t, dispatch_t, merge_t;

  // wake_stream() reaches this rank while the door is open.
  {
    std::lock_guard lock(door_->mu);
    door_->master = &world;
    door_->wake_pending = false;
  }

  // A stream that throws (a source callback, a failed check) must still
  // end, or the world would wait on its workers forever: on unwind, shut the
  // door, close the master's epoch and send every worker EOQ if it has not
  // gone out yet.
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
      {
        std::lock_guard lock(door_->mu);
        door_->master = nullptr;
      }
      if (epoch_open) win.unlock(0);
      for (std::size_t w = 0; w < P && !eoq_sent; ++w) {
        (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
      }
    } catch (...) {
      // The operation already fails with the first error.
    }
  }};

  // --- the ring: one slot (and one job-table row) per query in flight.
  struct Slot {
    std::uint64_t seq = 0;        ///< the occupant's stream sequence number
    bool busy = false;            ///< holds an unanswered query
    bool used = false;            ///< held a query before in this stream
    bool plans_final = true;      ///< exact routing: the ball is planned
    PartitionId first = kInvalidPartition;  ///< exact routing's phase 1
    StreamQuery query;
    std::uint32_t planned = 0;    ///< |F(q)|
    std::uint32_t remaining = 0;  ///< pending jobs
    std::uint32_t searched = 0;   ///< merged partitions
    std::uint32_t fanout = 0;     ///< jobs sent to a live replica
  };
  std::vector<Slot> ring(slots);
  std::deque<std::size_t> free_slots;
  for (std::size_t s = 0; s < slots; ++s) {
    ring[s].seq = s;
    free_slots.push_back(s);
  }
  std::size_t busy = 0;
  std::vector<std::byte> blank(layout.slot_bytes());

  // --- Algorithm 5 scaffolding: one round-robin pointer per workgroup
  // W_i = {p_i, p_{i+1 mod P}, ..., p_{i+r-1 mod P}}. Members declared dead
  // (in this stream or any earlier operation — `alive` is seeded from the
  // engine's ClusterHealth) are skipped; the first probe is the fault-free
  // choice, so a fault-free run dispatches identically whatever the
  // deadline.
  std::vector<std::uint32_t> next(P, 0);
  // Brownout effort caps: a per-query override can shrink the beam width and
  // the routing fan-out, never widen them (both are min'd against the
  // operation's defaults).
  auto query_ef = [&](const EffortOverride& e) -> std::uint32_t {
    if (e.ef != 0) return ef == 0 ? e.ef : std::min(e.ef, std::uint32_t(ef));
    return std::uint32_t(ef);
  };
  auto query_probes = [&](const EffortOverride& e) -> std::size_t {
    std::size_t n = std::min(config_.n_probe, P);
    if (e.max_probes != 0) n = std::min(n, std::size_t(e.max_probes));
    return n;
  };
  const auto replication = std::uint32_t(config_.replication);
  // A member must be alive *and* actually hold the replica: a heal that
  // found a partition unrecoverable revives the worker without it.
  auto can_serve = [&](std::size_t member, PartitionId d) {
    return alive[member] && workers_[member].count(d) != 0;
  };
  auto dispatch_job = [&](std::size_t s, PartitionId d) -> int {
    const Slot& sl = ring[s];
    for (std::uint32_t probe = 0; probe < replication; ++probe) {
      const std::size_t member = (d + next[d]) % P;
      next[d] = (next[d] + 1) % replication;
      if (!can_serve(member, d)) continue;
      QueryJob job;
      job.seq = sl.seq;
      job.partition = d;
      job.ef = query_ef(sl.query.effort);
      job.fanout = sl.fanout;
      job.query.assign(sl.query.vector.begin(), sl.query.vector.end());
      ScopedPhase p(dispatch_t);
      (void)world.isend(int(member) + 1, kTagQuery, encode_query_job(job));
      return int(member);
    }
    return -1;  // no live replica hosts partition d
  };

  // --- the job table: one entry per (slot, partition), flat per slot.
  enum class JobState : char { kNone, kPending, kMerged, kAbandoned };
  struct Job {
    JobState state = JobState::kNone;
    bool retried = false;  ///< re-dispatched after its first assignee died
    int worker = -1;       ///< current assignee (worker id, not rank)
  };
  std::vector<Job> jobs(slots * P);
  auto job_at = [&](std::size_t s, PartitionId d) -> Job& {
    return jobs[s * P + d];
  };
  std::vector<std::uint32_t> pending_per_worker(P, 0);
  std::uint64_t outstanding = 0;  // pending jobs in the stream
  const auto arm_time = Clock::now();
  std::vector<Clock::time_point> last_activity(P, arm_time);
  // Liveness beacons: under a finite deadline every worker heartbeats on a
  // reliable tag, so the master notices a death even when the worker has no
  // outstanding jobs to time out on.
  std::vector<Clock::time_point> last_heartbeat(P, arm_time);
  auto plan_job = [&](std::size_t s, PartitionId d) {
    Slot& sl = ring[s];
    ++sl.planned;
    const int m = dispatch_job(s, d);
    // m < 0: every replica of d was dead before the query came in — the
    // partition cannot be searched and the query will finalize short.
    job_at(s, d) =
        Job{m >= 0 ? JobState::kPending : JobState::kAbandoned, false, m};
    if (m < 0) return;
    // An idle worker's stall clock starts with its first pending job.
    if (pending_per_worker[std::size_t(m)]++ == 0) {
      last_activity[std::size_t(m)] = Clock::now();
    }
    ++sl.remaining;
    ++outstanding;
  };
  // Plan the query in slot s on `parts`, counting the jobs a live replica
  // can take into its fanout before the first of them is sent.
  auto plan_jobs = [&](std::size_t s, std::span<const PartitionId> parts) {
    for (const PartitionId d : parts) {
      for (std::uint32_t j = 0; j < replication; ++j) {
        if (can_serve((d + j) % P, d)) {
          ++ring[s].fanout;
          break;
        }
      }
    }
    for (const PartitionId d : parts) plan_job(s, d);
  };

  // --- finalize: the one place a query's answer and coverage are reported,
  // as soon as its answer is known, so the source sees completions in
  // finish order. The slot is free for the next query from then on.
  std::uint64_t answered = 0;
  std::uint64_t total_jobs = 0;
  auto finalize = [&](std::size_t s, std::vector<Neighbor> neighbors) {
    Slot& sl = ring[s];
    ANNSIM_CHECK_MSG(sl.busy, "slot " << s << " finalized twice");
    sl.busy = false;
    --busy;
    free_slots.push_back(s);
    const QueryCoverage cov{sl.searched, sl.planned};
    if (cov.degraded()) ++stats.degraded_queries;
    ++answered;
    total_jobs += sl.planned;
    source.done(sl.query.token, std::move(neighbors), cov);
  };
  std::size_t unplanned = 0;  // exact routing: slots whose ball is not out
  // Exact routing's second phase: plan every partition the ball of `radius`
  // around the query reaches, bar the first. plan_jobs adds the new jobs to
  // the query's fanout, so the merge that lands the last of them fills the
  // slot and rings the master once more.
  auto plan_ball = [&](std::size_t s, float radius) {
    Slot& sl = ring[s];
    sl.plans_final = true;
    --unplanned;
    route_t.start();
    auto parts = tree.route_ball(sl.query.vector.data(), radius);
    route_t.stop();
    std::erase(parts, sl.first);
    plan_jobs(s, parts);
  };
  auto complete = [&](std::size_t s, PartitionId d, Clock::time_point now) {
    Job& j = job_at(s, d);
    // Anything else is a late duplicate from a worker declared dead too
    // eagerly: the job completed elsewhere (or was abandoned).
    if (j.state != JobState::kPending) return false;
    j.state = JobState::kMerged;
    if (j.retried) ++stats.failovers;
    --pending_per_worker[std::size_t(j.worker)];
    last_activity[std::size_t(j.worker)] = now;
    ++ring[s].searched;
    --ring[s].remaining;
    --outstanding;
    return true;
  };

  // Declare worker `w` dead: fail each of its pending jobs over to the next
  // live replica of the partition; a job with no live replica left is
  // abandoned and its query completes degraded. The stream admits no more
  // queries: it drains and ends, so the caller can heal before the next.
  bool admitting = true;
  auto declare_dead = [&](std::size_t w) {
    alive[w] = 0;
    admitting = false;
    ++stats.workers_failed;
    for (std::size_t s = 0; s < slots; ++s) {
      if (!ring[s].busy) continue;
      for (PartitionId d = 0; d < P; ++d) {
        Job& j = job_at(s, d);
        if (j.state != JobState::kPending || j.worker != int(w)) continue;
        const int m = dispatch_job(s, d);
        if (m >= 0) {
          j.worker = m;
          j.retried = true;
          ++stats.retries;
          ++pending_per_worker[std::size_t(m)];
          last_activity[std::size_t(m)] = Clock::now();  // fresh deadline
        } else {
          j.state = JobState::kAbandoned;
          --outstanding;
          --ring[s].remaining;
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

  // Read slot s once. Exact routing's first read (phase 1 landed, or had
  // no live replica) plans the ball at the k-th distance the slot holds,
  // +inf while it holds fewer than k neighbours; a ball that adds no job
  // is answered from the same read. Otherwise feed each job the mask shows
  // to the table, check the mask against the table, and finalize. (A real
  // MPI master reads its exposed buffer directly; we go through get() so the
  // C++ memory model sees the same synchronisation the window's target lock
  // provides.)
  auto finalize_slot = [&](std::size_t s, Clock::time_point now) {
    ScopedPhase p(merge_t);
    DecodedSlot slot = decode_slot(
        win.get(0, layout.slot_offset(s), layout.slot_bytes()), layout);
    Slot& sl = ring[s];
    ANNSIM_CHECK_MSG(slot.seq == sl.seq, "slot " << s << " holds seq "
                                                 << slot.seq << ", want "
                                                 << sl.seq);
    if (!sl.plans_final) {
      if (slot.contains_partition(sl.first)) (void)complete(s, sl.first, now);
      plan_ball(s, slot.neighbors.size() < k
                       ? std::numeric_limits<float>::infinity()
                       : slot.neighbors[k - 1].dist);
      if (sl.remaining != 0) return;
    }
    std::uint32_t landed = 0;
    bool abandoned = false;
    for (PartitionId d = 0; d < P; ++d) {
      if (job_at(s, d).state == JobState::kNone) continue;
      if (slot.contains_partition(d)) {
        (void)complete(s, d, now);
        ++landed;
      }
      abandoned = abandoned || job_at(s, d).state == JobState::kAbandoned;
    }
    ANNSIM_CHECK_MSG(slot.merged_count == landed &&
                         (abandoned || landed == sl.planned),
                     "slot " << s << ": merged " << slot.merged_count
                             << ", mask shows " << landed << " of "
                             << sl.planned << " planned jobs");
    sl.searched = landed;
    finalize(s, std::move(slot.neighbors));
  };
  // Under a finite deadline: one pass over the unfinished slots' headers. It
  // credits per-job progress to the stall deadline, and answers each query
  // it finds complete — also one whose notice died with its sender.
  auto sweep_slots = [&](Clock::time_point now) {
    for (std::size_t s = 0; s < slots; ++s) {
      Slot& sl = ring[s];
      if (!sl.busy || sl.remaining == 0) continue;
      const SlotHeader hdr = decode_slot_header(
          win.get(0, layout.slot_offset(s), layout.header_bytes()), layout);
      for (PartitionId d = 0; d < P; ++d) {
        if (hdr.contains_partition(d)) (void)complete(s, d, now);
      }
      if (sl.remaining == 0 && sl.searched == sl.planned) finalize_slot(s, now);
    }
  };

  // --- admission: a free slot, a fresh occupant, routing and dispatch.
  auto admit = [&](const StreamQuery& q) {
    ANNSIM_CHECK_MSG(q.vector.size() == tree.dim(),
                     "stream query of " << q.vector.size() << " floats, want "
                                        << tree.dim());
    const std::size_t s = free_slots.front();
    free_slots.pop_front();
    Slot& sl = ring[s];
    if (sl.used) {
      // Recycled: the next occupant's seq, and a slot stamped with it, so a
      // late partial of the previous occupant is dropped, never merged.
      sl.seq += slots;
      init_slot(blank, layout, sl.seq);
      win.put(0, layout.slot_offset(s), blank);
    }
    sl.used = true;
    sl.busy = true;
    ++busy;
    sl.query = q;
    sl.planned = sl.remaining = sl.searched = sl.fanout = 0;
    for (PartitionId d = 0; d < P; ++d) job_at(s, d) = Job{};
    if (!config_.exact_routing) {
      // Single-pass F(q): best-first top-n_probe partitions. The engine's
      // logical step = queries dispatched: KillRule::at_step rules fire as
      // the clock sweeps past their trigger.
      if (fault != nullptr) fault->advance_step();
      route_t.start();
      auto plan = tree.route_topk(q.vector.data(), query_probes(q.effort));
      route_t.stop();
      plan_jobs(s, plan.partitions);
    } else {
      // Two-phase exact F(q): the nearest partition first, then, on its
      // slot-full notice (finalize_slot), every partition intersecting the
      // ball at the k-th distance it found.
      route_t.start();
      sl.first = tree.route_nearest(q.vector.data());
      route_t.stop();
      sl.plans_final = false;
      ++unplanned;
      plan_jobs(s, {&sl.first, 1});
    }
    // A query can have nothing in flight already: it lost every live
    // replica at dispatch (workers dead since an earlier operation). Nothing
    // can land in its slot, so read it now; under exact routing that sends
    // the second phase out at an infinite radius.
    if (sl.fanout == 0) finalize_slot(s, Clock::now());
  };

  // --- the one wait for progress: one slot-full notice, whose query is
  // answered (or, under exact routing, sent to its second phase) at once. A
  // wake from the source ends it too, and it is bounded by the source's
  // `wake_at` and, under a finite deadline, the poll, after which the slot
  // headers are swept at most once per poll.
  const auto poll = std::max(timeout / 8, std::chrono::microseconds(100));
  auto last_sweep = Clock::now();
  auto await_progress = [&](Clock::time_point wake_at) {
    if (detect) wake_at = std::min(wake_at, Clock::now() + poll);
    mpi::Request req =
        world.irecv_tags(mpi::kAnySource, {kTagSlotFull, kTagWake});
    bool got = true;
    if (wake_at == Clock::time_point::max()) {
      req.wait();  // blocking: under a controller, not a timeout choice
    } else {
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
          std::max(wake_at - Clock::now(), Clock::duration::zero()));
      got = req.wait_for(left) || !req.cancel();
    }
    const auto now = Clock::now();
    if (got) {
      const mpi::Message msg = req.take();
      if (msg.tag == kTagWake) {
        std::lock_guard lock(door_->mu);
        door_->wake_pending = false;
      } else {
        const std::uint64_t seq = decode_slot_full(msg.payload);
        const std::size_t s = slot_of(seq, bounds);
        // Dropped when the sweep answered it first or the slot moved on.
        if (ring[s].busy && ring[s].seq == seq) finalize_slot(s, now);
      }
    }
    if (detect && now - last_sweep >= poll) {
      last_sweep = now;
      sweep_slots(now);
    }
  };

  // EOQ goes out as soon as no job can still be sent: once the source is
  // done (or admission stopped) and every plan is out under an infinite
  // deadline, once nothing is outstanding under a finite one, so live
  // workers can serve failover jobs until then.
  bool source_open = true;
  auto send_eoq_when_final = [&] {
    if (eoq_sent || (admitting && source_open) || unplanned > 0 ||
        (detect && outstanding > 0)) {
      return;
    }
    eoq_sent = true;
    for (std::size_t w = 0; w < P; ++w) {
      ScopedPhase p(dispatch_t);
      (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
    }
  };

  // --- the stream: admit, then wait once, until nothing is left to do.
  win.lock_shared(0);
  epoch_open = true;
  std::vector<StreamQuery> pulled;
  for (;;) {
    auto wake_at = Clock::time_point::max();
    bool admitted = false;
    if (admitting && source_open) {
      pulled.clear();
      source_open = source.pull(free_slots.size(), pulled, wake_at);
      ANNSIM_CHECK_MSG(pulled.size() + busy <= slots,
                       "source handed " << pulled.size() << " queries for "
                                        << slots - busy << " free slots");
      for (const StreamQuery& q : pulled) admit(q);
      admitted = !pulled.empty();
    }
    send_eoq_when_final();
    if (outstanding == 0) {
      // Everything admitted so far is answered (or degraded, waiting for
      // the final read): pull again while the source keeps supplying.
      if (admitted && admitting && source_open) continue;
      break;
    }
    await_progress(wake_at);
    const auto now = Clock::now();
    drain_heartbeats(now);
    check_deadlines(now);
  }

  // --- the end: no wake can arrive any more, every worker hears EOQ.
  bool drain_wake;
  {
    std::lock_guard lock(door_->mu);
    door_->master = nullptr;
    drain_wake = door_->wake_pending;
    door_->wake_pending = false;
  }
  // A wake is sent under the door's lock, so it is in the mailbox already.
  if (drain_wake) (void)world.recv(0, kTagWake);
  admitting = false;
  send_eoq_when_final();

  // --- completion notices (also carry the Fig 4(b) per-process job counts),
  // per source rather than a wildcard: a dead worker's notice was eaten by
  // the injector, and a wildcard might wait on it forever. An infinite
  // deadline is the blocking recv, never recv_for with a huge duration:
  // under a schedule controller a timed wait is a timeout choice point, and
  // only blocking waits take part in deadlock detection. A notice missing
  // its deadline means the worker died after its last result; every job is
  // merged or abandoned by now, so nothing fails over.
  std::vector<std::size_t> silent;
  for (std::size_t w = 0; w < P; ++w) {
    if (!alive[w]) continue;
    const int src = int(w) + 1;
    const auto m = detect ? world.recv_for(src, kTagDone, timeout)
                          : std::optional(world.recv(src, kTagDone));
    if (!m.has_value()) {
      silent.push_back(w);
      continue;
    }
    BinaryReader rd(m->payload);
    const auto notice = rd.read<DoneNotice>();
    stats.jobs_per_worker[w] = notice.jobs_processed;
    stats.worker_compute_seconds += notice.compute_seconds;
    stats.worker_comm_seconds += notice.comm_seconds;
  }
  for (const std::size_t w : silent) declare_dead(w);

  // Every accumulate has landed, so each slot's mask is final. Answer the
  // queries no notice or sweep answered: degraded ones — read only now, so
  // merges that landed after their worker was (too eagerly) declared dead
  // still count — and any whose notice died with its sender.
  const auto now = Clock::now();
  for (std::size_t s = 0; s < slots; ++s) {
    if (ring[s].busy) finalize_slot(s, now);
  }
  win.unlock(0);
  epoch_open = false;
  ANNSIM_CHECK(busy == 0);

  stats.master_route_seconds = route_t.total_seconds();
  stats.master_dispatch_seconds = dispatch_t.total_seconds();
  stats.master_merge_seconds = merge_t.total_seconds();
  stats.total_jobs = total_jobs;
  stats.mean_partitions_per_query =
      answered ? double(total_jobs) / double(answered) : 0.0;
}

std::chrono::microseconds DistributedAnnEngine::detection_timeout() const {
  return std::chrono::microseconds(
      std::int64_t(config_.result_timeout_ms * 1000.0));
}

// Algorithm 4, the worker routine: a team of threads, each polling with
// MPI_Test and terminating through the shared Done flag once one of them
// takes the End of Queries; then the done notice.
void DistributedAnnEngine::worker_search(mpi::Comm& world, std::size_t k,
                                         const BatchBounds& bounds) {
  mpi::Window& win = result_window(world);
  // Passive-target access epoch at the master, shared mode (§IV-C1): one
  // epoch for the whole operation, shared by this worker's thread team.
  win.lock_shared(0);
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
  const bool inline_team = config_.threads_per_worker == 1;

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
      mpi::Request req = world.irecv_tags(0, {kTagQuery, kTagEoq});
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
      auto local = it->second.index->search(job.query.data(), k, job.ef);
      my_compute += tc.seconds();

      WallTimer tm;
      prev.clear();  // stays empty when the fabric drops the accumulate
      win.get_accumulate(
          0, layout.slot_offset(slot_of(job.seq, bounds)),
          encode_slot_update(local, layout, job.partition, job.seq), merge_op,
          &prev);
      // The fresh merge that brings the slot to the query's fanout completed
      // it: ring the master, which answers the query at once. A duplicate
      // (partition bit already set) or a stale job (the slot holds another
      // occupant) merged nothing.
      if (!prev.empty()) {
        const SlotHeader before = decode_slot_header(prev, layout);
        if (before.seq == job.seq &&
            !before.contains_partition(job.partition) &&
            before.merged_count + 1 == job.fanout) {
          (void)world.isend(0, kTagSlotFull, encode_slot_full(job.seq));
        }
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
    for (auto& t : team) t.join();
  }
  win.unlock(0);

  DoneNotice notice;
  notice.jobs_processed = jobs.load();
  notice.compute_seconds = compute_s;
  notice.comm_seconds = comm_s;
  BinaryWriter w;
  w.write(notice);
  world.send_reserved(0, kTagDone, w.bytes());
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

std::vector<std::optional<DistributedAnnEngine::PartitionSnapshot>>
DistributedAnnEngine::snapshot_partitions(
    const recovery::CheckpointStore& store) const {
  const std::size_t P = config_.n_workers;
  // A dead worker's in-memory replica froze at the moment of death and may
  // be missing writes (and, worse, tombstones) the surviving copy kept
  // absorbing — snapshotting it would let a later restore resurrect deleted
  // ids. Prefer copies on live workers; fall back to a dead host only when
  // no live copy exists.
  std::shared_ptr<mpi::FaultInjector> inj;
  {
    std::lock_guard lock(sync_->injector);
    inj = injector_;
  }
  const std::vector<char> alive = write_plane_alive(inj.get());
  std::vector<std::optional<PartitionSnapshot>> out(P);
  for (std::size_t p = 0; p < P; ++p) {
    const Replica* rep = nullptr;
    std::size_t rep_w = P;
    for (std::size_t j = 0; j < config_.replication; ++j) {
      const std::size_t w = (p + j) % P;
      const auto it = workers_[w].find(PartitionId(p));
      if (it == workers_[w].end() || (rep != nullptr && !alive[w])) continue;
      rep = &it->second;
      rep_w = w;
      if (alive[w]) break;
    }
    if (rep == nullptr) continue;  // every copy lost; nothing to snapshot
    recovery::CheckpointMeta meta;
    meta.partition = std::uint32_t(p);
    meta.dim = router_->dim();
    meta.index_kind = std::uint8_t(config_.local_index);
    PartitionSnapshot& snap = out[p].emplace();
    recovery::CheckpointStore::SaveReport saved;
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
      if (rep_w < wals_.size() && wals_[rep_w] != nullptr) {
        snap.watermark = wals_[rep_w]->last_synced_lsn();
      }
      meta.count = rep->index->size();
      const auto parts = seg->snapshot_parts();
      saved = store.save_segmented(meta, parts.header, parts.segments,
                                   parts.delta, snap.watermark);
    } else {
      meta.count = rep->data->size();
      saved = store.save(meta, pack_dataset(*rep->data), rep->index->to_bytes());
    }
    snap.manifest_checksum = saved.manifest_checksum;
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
  const auto snaps =
      snapshot_partitions(recovery::CheckpointStore(config_.checkpoint_dir));
  // Post-commit WAL GC: a worker's log file is droppable once every
  // partition the worker hosts has a committed checkpoint at or past the
  // file's last record. An unsnapshotted hosted partition (watermark 0)
  // blocks GC for that worker entirely — conservative, and only reachable
  // when every copy of a partition is already lost.
  for (std::size_t w = 0; w < wals_.size(); ++w) {
    if (wals_[w] == nullptr || workers_[w].empty()) continue;
    std::uint64_t gc_mark = ~std::uint64_t{0};
    for (const auto& [pid, hosted] : workers_[w]) {
      gc_mark = std::min(gc_mark, snaps[pid] ? snaps[pid]->watermark : 0);
    }
    if (gc_mark > 0) (void)wals_[w]->gc(gc_mark);
  }
}

std::size_t DistributedAnnEngine::restore_replica(
    std::size_t w, const recovery::CheckpointStore::LoadedPartition& snap) {
  const auto p = PartitionId(snap.meta.partition);
  ANNSIM_CHECK_MSG(snap.meta.dim == router_->dim(),
                   "checkpoint dim " << snap.meta.dim
                                     << " does not match the router's "
                                     << router_->dim());
  ANNSIM_CHECK_MSG(snap.meta.index_kind == std::uint8_t(config_.local_index),
                   "checkpoint index kind does not match the engine config");
  Replica rep;
  rep.data = std::make_unique<data::Dataset>(
      unpack_dataset(snap.data_bytes, router_->dim()));
  rep.index = local_index_from_bytes(snap.index_bytes, rep.data.get(),
                                     local_index_params(config_));
  LocalIndex& index = *workers_[w].emplace(p, std::move(rep)).first->second.index;
  // The snapshot only covers records up to its committed watermark; replay
  // the worker's own WAL records for this partition past it, so acked
  // writes that landed between the snapshot and the crash survive.
  if (w >= wals_.size() || wals_[w] == nullptr) return 0;
  std::size_t replayed = 0;
  for (const recovery::WalRecord& rec : wals_[w]->read_tail(snap.wal_watermark)) {
    // Advance the global streams past everything the log proves was acked,
    // other partitions' records included: a fresh write must never reuse an
    // LSN or a global id that a logged record already owns.
    next_lsn_ = std::max(next_lsn_, rec.lsn + 1);
    if (rec.type == recovery::WalRecordType::kCompactMark) continue;
    if (rec.partition < partition_last_lsn_.size()) {
      partition_last_lsn_[rec.partition] =
          std::max(partition_last_lsn_[rec.partition], rec.lsn);
    }
    if (rec.type == recovery::WalRecordType::kInsert) {
      next_stream_id_ = std::max(next_stream_id_, rec.id + 1);
    }
    if (PartitionId(rec.partition) != p) continue;
    ++replayed;
    if (rec.type == recovery::WalRecordType::kDelete) {
      (void)index.erase(rec.id);  // idempotent: a second pass is a miss
    } else if (const segment::SegmentedIndex* seg = index.segmented();
               seg == nullptr || !seg->contains(rec.id)) {
      // Idempotent by global id: a record at or below the snapshot's
      // watermark (or replayed twice) is already live in the replica.
      index.insert(rec.vec, rec.id);
    }
  }
  return replayed;
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

  // The first surviving peer that hosts the job's partition and is
  // reliably reachable (P: none).
  const auto peer_source = [&](const RestoreJob& job) {
    for (std::size_t v = 0; v < P; ++v) {
      if (v == job.worker || workers_[v].count(job.partition) == 0) continue;
      if (!health_.alive(v)) continue;
      // A source whose pending kill trigger already tripped would silently
      // eat the stream; probe the reliable gate before trusting it.
      if (injector_ != nullptr && !injector_->allow_reliable_op(int(v) + 1)) {
        continue;
      }
      return v;
    }
    return P;
  };

  // 3. Prefer the checkpoint store: a durable snapshot restores locally with
  //    no cluster traffic at all (the LANNS model — reload, don't rebuild).
  std::vector<RestoreJob> stream_plan;
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
          peer_source(job) != P) {
        stream_plan.push_back(job);
        continue;
      }
      try {
        report.wal_replayed_records +=
            restore_replica(job.worker, store.load(job.partition));
      } catch (const Error& e) {
        // A flipped byte, a truncated file or a snapshot of another shape
        // in the on-disk checkpoint must not sink the replica:
        // name the failing partition and fall back to streaming it from
        // a surviving peer instead.
        ANNSIM_WARN("checkpoint for partition "
                    << job.partition << " is corrupt (" << e.what()
                    << "); falling back to peer-stream heal");
        workers_[job.worker].erase(job.partition);  // a half-replayed copy
        stream_plan.push_back(job);
        continue;
      }
      ++report.replicas_restored_from_checkpoint;
    }
  } else {
    stream_plan = std::move(plan);
  }

  // 4. No checkpoint: stream each missing replica from a surviving copy over
  //    the p2p data plane (kTagReplica, reliable — re-replication completes
  //    even while drop_probability is eating data-plane traffic). Streamed
  //    replicas replay no WAL: the surviving peer is already current.
  std::vector<HealTransfer> transfers;
  for (const RestoreJob& job : stream_plan) {
    const std::size_t src = peer_source(job);
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
  recovery::WalOptions opt;
  opt.group_commit = config_.wal_group_commit;
  wals_.reserve(P);
  for (std::size_t w = 0; w < P; ++w) {
    const auto dir = std::filesystem::path(config_.wal_dir) /
                     ("worker_" + std::to_string(w));
    wals_.push_back(std::make_unique<recovery::WriteLog>(dir.string(), opt));
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

// ----------------------------------------------------------- persistence ---
//
// An engine image is a directory: a CheckpointStore with one snapshot per
// partition, written by snapshot_partitions() like every checkpoint, and
// `engine.bin`, the manifest that names them. load() gives every workgroup
// member of a partition its copy back from that one snapshot, through the
// same restore_replica() heal uses.

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kImageMagic = 0x414E454D;  // "ANEM"
/// 2: the config no longer carries a dispatch strategy. 3: nor a result
/// transport.
constexpr std::uint32_t kImageVersion = 3;
constexpr const char* kImageManifest = "engine.bin";

/// Every persisted config field in manifest order, handed to `field`: one
/// list for the writer and the reader.
template <typename Config, typename Field>
void config_fields(Config& c, const Field& field) {
  field(c.n_workers);
  field(c.replication);
  field(c.n_probe);
  field(c.exact_routing);
  field(c.threads_per_worker);
  field(c.local_index);
  field(c.partitioner.tree);
  field(c.partitioner.vantage_candidates);
  field(c.partitioner.vantage_sample);
  field(c.partitioner.seed);
  field(c.hnsw.M);
  field(c.hnsw.ef_construction);
  field(c.hnsw.ef_search);
  field(c.hnsw.level_mult);
  field(c.hnsw.seed);
  field(c.hnsw.metric);
  field(c.seed);
  field(c.ivfpq.nlist);
  field(c.ivfpq.nprobe);
  field(c.ivfpq.pq.m);
  field(c.ivfpq.pq.ks);
  field(c.ivfpq.pq.train_iters);
  field(c.ivfpq.pq.seed);
  field(c.ivfpq.coarse_iters);
  field(c.ivfpq.seed);
  field(c.segment_delta_capacity);
  field(c.quantize_frozen);
  field(c.float_cache_fraction);
}

}  // namespace

void DistributedAnnEngine::save(const std::string& path) const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  fs::path target(path);
  if (!target.has_filename()) target = target.parent_path();
  ANNSIM_CHECK_MSG(!fs::is_directory(target) || fs::is_empty(target) ||
                       fs::exists(target / kImageManifest),
                   "refusing to replace " << path
                                          << ": a directory that is not an "
                                             "engine image");
  // The image is written whole into a hidden sibling and renamed into
  // place: a crash leaves the old image, the new one, or none (a typed
  // error on load), never partitions of two saves.
  const fs::path staging =
      target.parent_path() / ("." + target.filename().string() + ".staging");
  fs::remove_all(staging);

  BinaryWriter m;
  m.write(kImageMagic);
  m.write(kImageVersion);
  {
    // At a write-round boundary: no insert, delete or compaction is half
    // applied, and the counters match the replicas.
    std::lock_guard api(sync_->write_api);
    std::shared_lock topology(sync_->topology);
    config_fields(config_, [&](const auto& v) { m.write(v); });
    m.write(next_stream_id_);  // id stream survives save/load, never reused
    m.write(next_lsn_);        // LSN stream too: WAL replay resumes past it
    BinaryWriter tree;
    router_->serialize(tree);
    m.write_vector(tree.take());
    m.write_vector(build_stats_.partition_sizes);
    // A partition with no copy left has no snapshot and stays missing.
    const auto snaps =
        snapshot_partitions(recovery::CheckpointStore(staging.string()));
    m.write(std::uint64_t(std::count_if(
        snaps.begin(), snaps.end(), [](const auto& s) { return s.has_value(); })));
    for (std::size_t p = 0; p < snaps.size(); ++p) {
      if (!snaps[p]) continue;
      m.write(PartitionId(p));
      m.write(snaps[p]->manifest_checksum);
    }
  }
  m.write(recovery::checksum64(m.bytes()));
  recovery::DurableFile::write_atomic((staging / kImageManifest).string(),
                                      m.bytes());
  fs::remove_all(target);
  std::error_code ec;
  fs::rename(staging, target, ec);
  ANNSIM_CHECK_MSG(!ec, "rename " << staging.string() << " -> " << path << ": "
                                  << ec.message());
  recovery::DurableFile::sync_dir(target.parent_path().string());
}

DistributedAnnEngine DistributedAnnEngine::load(
    const std::string& path, const std::string& checkpoint_dir,
    const std::string& wal_dir) {
  const fs::path root(path);
  ANNSIM_CHECK_MSG(!fs::is_regular_file(root),
                   path << " is a file: single-file \"ANIF\" engine images "
                           "are a format this version does not read; rebuild "
                           "the index (an engine image is a directory)");
  ANNSIM_CHECK_MSG(fs::exists(root / kImageManifest),
                   "no engine image at " << path << " (" << kImageManifest
                                         << " missing)");
  auto bytes = recovery::DurableFile::read_all((root / kImageManifest).string());
  std::uint64_t sum = 0;
  ANNSIM_CHECK_MSG(bytes.size() >= sizeof(sum),
                   "engine manifest truncated in " << path);
  std::memcpy(&sum, bytes.data() + bytes.size() - sizeof(sum), sizeof(sum));
  bytes.resize(bytes.size() - sizeof(sum));
  ANNSIM_CHECK_MSG(recovery::checksum64(bytes) == sum,
                   "engine manifest checksum mismatch in " << path);
  BinaryReader r(bytes);
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == kImageMagic,
                   "bad engine manifest magic in " << path);
  const auto version = r.read<std::uint32_t>();
  ANNSIM_CHECK_MSG(version == kImageVersion,
                   "unsupported engine manifest version "
                       << version << " in " << path << " (this build reads "
                       << kImageVersion << "; rebuild the index)");

  DistributedAnnEngine eng;
  config_fields(eng.config_, [&](auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = r.read<std::uint8_t>() != 0;
    } else {
      v = r.read<T>();
    }
  });
  eng.next_stream_id_ = r.read<GlobalId>();
  eng.next_lsn_ = r.read<std::uint64_t>();
  // The manifest is as untrusted as any caller: hold the decoded config to
  // the constructor's rules before anything sizes itself from it.
  validate_engine_config(eng.config_);
  const std::size_t P = eng.config_.n_workers;
  const auto tree_bytes = r.read_vector<std::byte>();
  BinaryReader tr(tree_bytes);
  eng.router_.emplace(vptree::PartitionTree::deserialize(tr));
  ANNSIM_CHECK_MSG(eng.router_->n_partitions() == P,
                   "engine manifest router has " << eng.router_->n_partitions()
                                                 << " partitions for " << P
                                                 << " workers");
  eng.build_stats_.partition_sizes = r.read_vector<std::size_t>();
  ANNSIM_CHECK_MSG(eng.build_stats_.partition_sizes.size() == P,
                   "engine manifest has " << eng.build_stats_.partition_sizes.size()
                                          << " partition sizes for " << P
                                          << " partitions");
  const auto n_covered = r.read<std::uint64_t>();
  ANNSIM_CHECK_MSG(n_covered <= P, "engine manifest covers " << n_covered
                                                             << " of " << P
                                                             << " partitions");
  std::vector<std::pair<PartitionId, std::uint64_t>> covered(n_covered);
  for (auto& [p, manifest_sum] : covered) {
    p = r.read<PartitionId>();
    manifest_sum = r.read<std::uint64_t>();
    ANNSIM_CHECK_MSG(p < P, "engine manifest names partition " << p << " of "
                                                               << P);
  }
  ANNSIM_CHECK_MSG(r.exhausted(), "trailing bytes in engine manifest " << path);

  eng.workers_.resize(P);
  eng.partition_last_lsn_.assign(P, 0);
  eng.health_.reset(P);
  eng.config_.checkpoint_dir = checkpoint_dir;
  if (!wal_dir.empty()) {
    // Re-attach the WALs: each restored replica replays its worker's log
    // past its snapshot's watermark, so writes acked after the save() but
    // before a crash come back, as the ack contract says they must.
    ANNSIM_CHECK_MSG(eng.config_.local_index == LocalIndexKind::kSegmented,
                     "wal_dir requires the segmented local index");
    eng.config_.wal_dir = wal_dir;
    eng.open_wals();
  }
  const recovery::CheckpointStore store(path);
  for (const auto& [p, manifest_sum] : covered) {
    const auto snap = store.load(p);
    ANNSIM_CHECK_MSG(snap.manifest_checksum == manifest_sum,
                     "partition " << p << " in " << path
                                  << " is not the snapshot its engine "
                                     "manifest names (another save's)");
    // Algorithm 5's workgroup W_p = {p, ..., p+r-1 mod P}.
    for (std::size_t j = 0; j < eng.config_.replication; ++j) {
      (void)eng.restore_replica((p + j) % P, snap);
    }
  }
  eng.save_checkpoints();  // no-op without a checkpoint dir
  return eng;
}

}  // namespace annsim::core
