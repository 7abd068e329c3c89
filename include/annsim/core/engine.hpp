#pragma once
/// \file engine.hpp
/// \brief The paper's system: a distributed approximate k-NN engine with
/// VP-tree partitioning, per-partition HNSW indexes, master-worker batched
/// search (Algorithms 3-4), one-sided result accumulation (§IV-C1) and
/// replication-based load balancing (Algorithm 5). §IV's multiple-owner
/// dispatch, which the paper tried and set aside, is modelled in the
/// performance simulator (des::SearchSimConfig::multiple_owner), not run
/// here. Table III's exact KD-tree baseline (PANDA) is a
/// configuration of the same engine: `partitioner.tree = kKdTree`,
/// `local_index = kExactTree` (which takes the KD split rule from
/// `partitioner.tree`), `exact_routing = true`.
///
/// The engine runs SPMD operations on the simulated MPI runtime with
/// `n_workers + 1` ranks (rank 0 = master process; worker w = rank w+1, and
/// partition w lives on worker w after construction). The worker ranks are
/// persistent, as the paper's MPI processes are: the engine starts them on
/// first use and joins them in its destructor, and each loops over the
/// operations the master sends it (DESIGN.md §4.15). The thread that calls
/// an operation acts as rank 0 for it. Because the runtime is
/// threads-as-ranks, per-worker state (partitions, local indexes) lives in
/// engine-owned storage.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "annsim/core/local_index.hpp"
#include "annsim/core/partitioner.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/recovery/checkpoint.hpp"
#include "annsim/recovery/health.hpp"
#include "annsim/recovery/write_log.hpp"
#include "annsim/vptree/partition_tree.hpp"

namespace annsim::core {

struct BatchBounds;

struct EngineConfig {
  std::size_t n_workers = 8;   ///< P processing cores (power of two)
  std::size_t replication = 1; ///< r; 1 = no replication (baseline)
  std::size_t n_probe = 4;     ///< |F(q)| in single-pass routing mode
  /// Must stay true: every answer returns through the one-sided result
  /// window (§IV-C1), and validation rejects false. Two-sided returns are
  /// modelled in the search DES (des::SearchSimConfig::one_sided).
  bool one_sided = true;
  bool exact_routing = false;  ///< two-phase F(q): nearest first, then the
                               ///< exact ball at the observed k-th distance
  std::size_t threads_per_worker = 2;  ///< Algorithm 4's thread team size
  /// Build each worker's local index with threads_per_worker threads (the
  /// paper's multi-threaded HNSW construction). Off by default because
  /// parallel insertion order makes the graph — and therefore approximate
  /// results — run-to-run nondeterministic.
  bool parallel_local_build = false;

  /// Per-partition search algorithm (§VI: "any algorithm can be used for
  /// local indexing"). kBruteForce or kExactTree + exact_routing = exact
  /// distributed k-NN; kExactTree splits as `partitioner.tree` does.
  LocalIndexKind local_index = LocalIndexKind::kHnsw;
  hnsw::HnswParams hnsw;
  pq::IvfPqParams ivfpq;  ///< used when local_index == kIvfPq
  /// Mutable-delta capacity per replica (local_index == kSegmented): how many
  /// streamed inserts a partition absorbs before compact() must re-freeze.
  std::size_t segment_delta_capacity = 1024;
  /// local_index == kSegmented only: frozen segments store SQ8 code rows
  /// (1 byte/dim) plus an exact float re-rank cache instead of full floats.
  /// ~4x smaller resident partitions and checkpoints; L2 / InnerProduct only.
  bool quantize_frozen = false;
  /// Fraction of each quantized segment's rows kept as exact floats for
  /// re-ranking (the recall-recovery knob; ~0.01-0.05 is the useful range).
  double float_cache_fraction = 0.02;
  PartitionerConfig partitioner;
  std::uint64_t seed = 123;

  // ---- fault tolerance (see fault.hpp for the failure model) ----
  /// Fault schedule injected into the engine's operations after build (chaos
  /// runs). Runtime
  /// ranks: 0 is the master, worker w is rank w + 1 — kill rules must name
  /// worker ranks. An enabled plan requires `result_timeout_ms > 0`, or the
  /// master would hang waiting on a silent worker. The engine marks the
  /// End-of-Queries tag reliable (control plane): termination always reaches
  /// live workers even under `drop_probability`, so a chaos run can degrade
  /// results but never hang the batch. `KillRule::at_step` triggers on the
  /// engine's query-dispatch clock: the master advances the runtime step once
  /// per query as it begins dispatching that query's jobs, so `at_step = s`
  /// kills the rank from (roughly) the s-th dispatched query onward.
  mpi::FaultPlan fault;
  /// Failure-detection deadline: a worker with outstanding jobs that shows
  /// no progress for this long, or whose liveness beacon (sent every quarter
  /// deadline) goes silent for this long, is declared dead — not just for
  /// the batch but until heal() revives it — and its jobs fail over to live
  /// replicas. 0 (default) is an infinite deadline: the same search path
  /// with blocking waits, no beacons and no retries. A finite deadline
  /// supports master-worker single-pass routing only.
  double result_timeout_ms = 0.0;

  // ---- self-healing (see recovery/) ----
  /// Durable per-partition snapshot directory. Non-empty: build() (and
  /// load()) checkpoint every partition, and heal() restores a revived
  /// worker's replicas from disk instead of streaming them from peers.
  /// Empty (default): no checkpoints; heal() streams from surviving
  /// replicas.
  std::string checkpoint_dir;
  /// Per-worker write-ahead-log directory (`<wal_dir>/worker_<w>/`).
  /// Non-empty: every insert/delete is CRC-framed and fsynced to the
  /// worker's log *before* that worker acks the round on kTagWriteAck, so an
  /// acked write survives any crash — heal() and load() replay the log tail
  /// past each checkpoint's LSN watermark. Empty (default): no WAL; writes
  /// are durable only as of the last checkpoint.
  std::string wal_dir;
  /// Group commit: one fsync per worker per write round instead of one per
  /// record. Same durability contract (the ack waits for the sync either
  /// way); this is the knob that keeps the mutate-bench p999 budget intact.
  bool wal_group_commit = true;
  /// Checkpoint every Nth write round (1 = every round, the pre-WAL
  /// behavior). With a WAL the tail between checkpoints is replayable, so
  /// larger values trade checkpoint I/O for replay length.
  std::size_t checkpoint_every_rounds = 1;

  // ---- usage-correctness checking (annsim::check) ----
  /// Run every engine operation (build, search batches, writes, heal) under
  /// the MPI
  /// usage verifier. ANNSIM_MPI_CHECK=1 in the environment force-enables
  /// this too. The engine declares its control-plane tags (EOQ, done,
  /// heartbeat) reserved and, when failure detection is armed, marks the
  /// by-design-abandonable data-plane tags best-effort — see DESIGN.md §4.9.
  bool mpi_check = false;
  /// Checked operations throw on violations (fatal). Set false to collect
  /// and inspect `DistributedAnnEngine::check_report()` instead.
  bool check_fatal = true;
};

/// Timings of this process's build(); they are not saved, so a loaded
/// engine reports zeros and only its partition sizes.
struct BuildStats {
  double total_seconds = 0.0;
  double vp_tree_seconds = 0.0;      ///< router build: max across workers
                                     ///< (VP), or the master's (KD)
  double hnsw_seconds = 0.0;         ///< max across workers
  /// Replica packing, sending and decoding: max across workers. Excludes
  /// the wait for a peer's local build, which recv would otherwise count.
  double replication_seconds = 0.0;
  std::vector<std::size_t> partition_sizes;
};

/// How much of a query's routing plan was actually searched. Equal counts
/// mean the full plan was covered; `searched < planned` marks a degraded
/// result (a partition lost all its live replicas mid-batch).
struct QueryCoverage {
  std::uint32_t partitions_searched = 0;
  std::uint32_t partitions_planned = 0;

  [[nodiscard]] bool degraded() const noexcept {
    return partitions_searched < partitions_planned;
  }
};

struct SearchStats {
  double total_seconds = 0.0;
  double master_route_seconds = 0.0;     ///< F(q) computation at master
  double master_dispatch_seconds = 0.0;  ///< isend loop at master
  double master_merge_seconds = 0.0;     ///< result merging at master
  double worker_compute_seconds = 0.0;   ///< sum over workers: local searches
  double worker_comm_seconds = 0.0;      ///< sum over workers: result returns
  std::vector<std::uint64_t> jobs_per_worker;  ///< Fig 4(b) raw data
  std::uint64_t total_jobs = 0;
  double mean_partitions_per_query = 0.0;
  mpi::TrafficStats traffic;  ///< this search's own traffic (a delta)

  // ---- fault tolerance (counters stay 0 at result_timeout_ms == 0) ----
  std::uint64_t retries = 0;          ///< jobs re-dispatched after a death
  std::uint64_t failovers = 0;        ///< retried jobs a live replica completed
  /// Workers *newly* declared dead this batch. A worker already dead in the
  /// engine's ClusterHealth when the batch started is skipped at dispatch
  /// and not counted again — the health record is the single source of
  /// truth, so lifetime deaths are `health().workers[w].deaths`, not a sum
  /// of per-batch counters.
  std::uint64_t workers_failed = 0;
  std::uint64_t degraded_queries = 0; ///< queries with partial coverage
  /// Per-query coverage, one entry per query (full when nothing failed).
  std::vector<QueryCoverage> coverage;
};

/// Outcome of one streaming write round (engine insert()/remove()).
/// Counters are summed across workers, so with replication r a row that
/// reached every replica contributes r to `inserted_replicas`.
struct WriteStats {
  /// Global ids assigned to the inserted rows, in input order. Ids come from
  /// a monotone stream counter that starts past the build corpus, so they
  /// never collide with existing ids.
  std::vector<GlobalId> assigned_ids;
  std::uint64_t inserted_replicas = 0;  ///< per-replica insert absorptions
  std::uint64_t erased_replicas = 0;    ///< per-replica tombstones placed
  /// Rows whose owning partition had no live replica at send time — the
  /// write is lost (the id is still consumed). Nonzero only mid-outage.
  std::uint64_t dropped_rows = 0;
  std::uint64_t max_delta_fill = 0;  ///< fullest delta seen in the acks
  /// Parallel to assigned_ids: true iff at least one worker the row was
  /// shipped to acked the round (ack ⇒ WAL-durable when a wal_dir is set).
  /// Rows acked by nobody must be treated as lost by durability-gating
  /// callers; rows in a round whose every target died mid-commit stay false.
  std::vector<char> row_acked;
  /// True iff every targeted worker acked this round. With a WAL, false
  /// means some log commit did not complete — the unacked rows may or may
  /// not survive a crash.
  bool all_acked = true;
};

/// Aggregate quantized-tier (SQ8) footprint across all hosted replicas.
/// Meaningful when local_index == kSegmented with quantize_frozen; all zero
/// otherwise. Totals double-count with replication, like partition_sizes().
struct CompressionStats {
  std::size_t quant_rows = 0;            ///< rows stored as SQ8 codes
  std::size_t quant_resident_bytes = 0;  ///< codes + re-rank caches + codebooks
  std::size_t quant_float_bytes = 0;     ///< full-float equivalent footprint
  std::size_t quant_cached_rows = 0;     ///< rows with an exact float copy
  std::uint64_t rerank_exact = 0;        ///< candidates re-scored exactly
  std::uint64_t rerank_coded = 0;        ///< candidates kept at SQ8 distance
  /// quant_float_bytes / quant_resident_bytes (0 when nothing is quantized).
  [[nodiscard]] double compression_ratio() const noexcept {
    return quant_resident_bytes == 0
               ? 0.0
               : double(quant_float_bytes) / double(quant_resident_bytes);
  }
};

/// Per-query completion hook for batched search: invoked by the master as
/// soon as query `qid`'s final merged result is known (before `search`
/// returns): as the master reads a slot whose last planned partition just
/// landed (a degraded slot is read when the operation ends). `coverage`
/// counts the partitions searched against those planned;
/// `coverage.degraded()` flags a partial result (possible only under a
/// finite failure-detection deadline). Runs on the thread that called search(), which is rank 0 of
/// the operation: keep it cheap, since collection waits for it.
using QueryDoneFn =
    std::function<void(std::size_t qid, const std::vector<Neighbor>& result,
                       const QueryCoverage& coverage)>;

/// Per-query search-effort override, the engine half of brownout: under
/// overload the serving plane shrinks a query's beam width and fan-out
/// instead of shedding it. Both fields are caps — they can only reduce work
/// relative to the batch-level `ef` / `n_probe`, never raise the plan's
/// fan-out — and 0 means "no override" so a default-constructed entry is
/// full effort.
struct EffortOverride {
  std::uint32_t ef = 0;          ///< per-partition beam width; 0 = batch ef
  std::uint32_t max_probes = 0;  ///< cap on |F(q)|; 0 = config n_probe
};

/// One query a stream admits (see QuerySource).
struct StreamQuery {
  std::span<const float> vector;  ///< valid until done() reports the query
  std::uint64_t token = 0;        ///< the source's name, echoed by done()
  EffortOverride effort;          ///< brownout caps (default: full effort)
};

/// The caller's side of a query stream (DistributedAnnEngine::stream): the
/// stream's master pulls queries from it and reports each answer to it, on
/// the thread that called stream().
class QuerySource {
 public:
  using Clock = std::chrono::steady_clock;
  virtual ~QuerySource() = default;
  /// One dispatch round: append at most `free` queries (0 when every slot
  /// is taken) to `out`, in dispatch order. Return false once no query will
  /// follow, so the stream can close as soon as it drains. Lowering
  /// `wake_at` (passed in as max) bounds the master's next wait, so a
  /// source can act on a queued deadline or backoff gate while every query
  /// in flight is still running.
  virtual bool pull(std::size_t free, std::vector<StreamQuery>& out,
                    Clock::time_point& wake_at) = 0;
  /// Query `token`'s answer, sorted by distance, and its coverage, as soon
  /// as both are known. The source may keep `result`.
  virtual void done(std::uint64_t token, std::vector<Neighbor>&& result,
                    const QueryCoverage& coverage) = 0;
};

/// Throws annsim::Error with a field-specific message when `config` is
/// unusable (zero workers/probes, replication outside [1, n_workers], ...).
/// Called from the engine constructor and again from build().
void validate_engine_config(const EngineConfig& config);

class DistributedAnnEngine {
 public:
  /// `base` is referenced, not owned, and must outlive the engine.
  DistributedAnnEngine(const data::Dataset* base, EngineConfig config);
  ~DistributedAnnEngine();

  DistributedAnnEngine(const DistributedAnnEngine&) = delete;
  DistributedAnnEngine& operator=(const DistributedAnnEngine&) = delete;
  /// A moved engine keeps its rank threads: they serve whichever engine
  /// object issues the next operation.
  DistributedAnnEngine(DistributedAnnEngine&&) noexcept = default;
  DistributedAnnEngine& operator=(DistributedAnnEngine&&) noexcept = default;

  /// Distributed construction: VP-tree partitioning (Algorithms 1-2), or
  /// the KD baseline's master-built tree, then local index builds and
  /// partition replication.
  void build();

  [[nodiscard]] bool built() const noexcept { return router_.has_value(); }
  [[nodiscard]] const BuildStats& build_stats() const noexcept { return build_stats_; }

  /// Batched k-NN search (Algorithms 3-5). `ef` = 0 uses the index default.
  /// `on_query_done`, when set, reports each query's completion to online
  /// callers (the serving plane) as soon as its answer is known, on either
  /// transport, so a slow or dead worker holds back only the queries whose
  /// jobs it holds.
  /// `efforts`, when non-empty, must hold one EffortOverride per query and
  /// caps that query's beam width / partition fan-out (brownout search;
  /// master-worker dispatch only). A master-worker search is a stream
  /// (below) that admits the whole batch in its first dispatch round, with
  /// one slot per query.
  [[nodiscard]] data::KnnResults search(const data::Dataset& queries,
                                        std::size_t k, std::size_t ef = 0,
                                        SearchStats* stats = nullptr,
                                        const QueryDoneFn& on_query_done = {},
                                        std::span<const EffortOverride> efforts = {});

  /// One open search operation fed query by query (DESIGN.md §4.15): the
  /// calling thread becomes rank 0 and keeps up to `slots` queries of
  /// `source` in flight on the search cohort, pulling more as slots free,
  /// with no batch barrier. Each query's result slot and job row are
  /// recycled once it is answered. The stream ends when nothing is in
  /// flight and the source has nothing to admit, or once it has declared a
  /// worker dead (it then stops admitting and drains). Master-worker
  /// dispatch only. Returns the operation's stats; per-query coverage goes
  /// to QuerySource::done, not `coverage`.
  SearchStats stream(QuerySource& source, std::size_t k, std::size_t slots,
                     std::size_t ef = 0);

  /// Wake an open stream's master so it pulls from its source now (any
  /// thread; no-op when no stream is open). The wake travels as a message
  /// into rank 0's mailbox on the reserved kTagWake, which the fault
  /// injector never gates, so the master keeps one blocking wait. At most
  /// one wake is pending at a time.
  void wake_stream();

  // ---- streaming writes (local_index == kSegmented only) ----

  /// Insert a batch of vectors into the live index. The master routes each
  /// row to its nearest partition (same router as queries) and ships it to
  /// every live replica of that partition over the reserved write tags; the
  /// replicas absorb it into their mutable delta. Returns the assigned
  /// global ids — immediately searchable. Thread-safe against concurrent
  /// search() batches; write rounds themselves serialize.
  WriteStats insert(const data::Dataset& rows);

  /// Delete by global id: broadcast to every live worker, which tombstones
  /// the id on each hosted replica that holds it. Deleted ids stop appearing
  /// in results immediately; space is reclaimed by compact().
  WriteStats remove(std::span<const GlobalId> ids);

  /// Re-freeze every replica's delta + segments into one frozen segment
  /// (hot-swapped under the searches). Returns the number of replica
  /// compactions that did work. Safe to run from a background thread while
  /// search() batches are in flight.
  std::uint64_t compact();

  /// Fullest mutable delta across all hosted replicas — the serving plane's
  /// compaction trigger.
  [[nodiscard]] std::size_t max_delta_fill() const;

  /// Quantized-tier footprint summed over every hosted segmented replica.
  [[nodiscard]] CompressionStats compression_stats() const;

  /// The master's routing tree (valid after build()).
  [[nodiscard]] const vptree::PartitionTree& router() const;

  [[nodiscard]] std::vector<std::size_t> partition_sizes() const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Per-query routing plans — the F(q) the master would compute. Exposed so
  /// the discrete-event performance simulator replays the *identical*
  /// dispatch decisions at scale.
  [[nodiscard]] std::vector<std::vector<PartitionId>> plan_queries(
      const data::Dataset& queries) const;

  /// Persist the built index to the directory `path`, replacing an image
  /// already there. The layout is a CheckpointStore with one snapshot per
  /// partition, not per replica (`partition_<p>/`, from the partition's
  /// first live workgroup member, the way save_checkpoints() picks), plus
  /// `engine.bin`: the config, the router image, the id and LSN counters,
  /// the partition sizes and each snapshot's manifest checksum, itself
  /// checksummed. Equal engines save equal bytes. The image is staged in a
  /// hidden sibling and renamed into place, and save() waits for the write
  /// round in flight, so an image is always at a round boundary.
  ///
  /// `load` restores a search-ready engine without the original corpus:
  /// every member of each partition's workgroup gets its replica from the
  /// partition's snapshot through the step heal() restores checkpoints with
  /// (a partition that had no copy at save time stays missing). A snapshot
  /// that is not the one the manifest names fails with annsim::Error. Pass
  /// `checkpoint_dir` to re-arm durable snapshots on the loaded engine (it
  /// checkpoints every partition immediately). Pass `wal_dir` to re-attach
  /// the write-ahead logs: the logs are recovered (torn tails truncated) and
  /// each replica replays its worker's records past its snapshot's
  /// watermark before the engine is returned — the crash-restart path that
  /// makes every acked write reappear.
  void save(const std::string& path) const;
  static DistributedAnnEngine load(const std::string& path,
                                   const std::string& checkpoint_dir = "",
                                   const std::string& wal_dir = "");

  /// Is `id` present (and not tombstoned) in any hosted segmented replica?
  /// The WAL replay path uses this for idempotence; exposed because
  /// durability tests and benches want the same ground truth.
  [[nodiscard]] bool contains(GlobalId id) const;

  // ---- self-healing ----

  /// Per-worker liveness as tracked by the heartbeat/deadline monitor,
  /// persistent across search() batches. All-alive until a batch with
  /// failure detection armed observes a death.
  [[nodiscard]] const recovery::ClusterHealth& health() const noexcept {
    return health_;
  }
  /// Live copies of partition `p` (replicas hosted by alive workers).
  [[nodiscard]] std::size_t live_replicas(PartitionId p) const;
  /// Partitions whose live-copy count is below the configured replication
  /// factor, ascending. Non-empty means the cluster needs healing.
  [[nodiscard]] std::vector<PartitionId> under_replicated_partitions() const;

  /// Snapshot every partition into `config().checkpoint_dir` (no-op when
  /// empty). build() calls this automatically, as does load() when given a
  /// checkpoint directory; exposed so callers can re-checkpoint after
  /// healing.
  void save_checkpoints() const;

  /// Repair the cluster: revive every dead worker (clearing its fault-plan
  /// kill triggers) and restore its replicas — from the checkpoint store
  /// when one is configured, otherwise by streaming each partition from a
  /// surviving replica over the p2p data plane. Dispatch re-runs round-robin
  /// workgroup assignment naturally, so restored copies serve the very next
  /// batch. Safe to call with nothing to heal (reports zeros).
  recovery::HealReport heal();

  /// Cumulative annsim::check report across every operation this engine ran
  /// (build, each search batch, write round, compaction, heal). Empty unless
  /// checking is enabled via `EngineConfig::mpi_check` or ANNSIM_MPI_CHECK=1.
  [[nodiscard]] check::CheckReport check_report() const;

  /// Arm (or disarm) the MPI usage checker. Joins the engine's rank threads
  /// (their reports fold into check_report()); the next operation starts
  /// them again under the new setting. `fatal=false` accumulates violations
  /// into check_report() instead of throwing at operation end — the mode the
  /// CLI benches use so a violation is reported once, at exit.
  void set_mpi_check(bool enabled, bool fatal = true);

  /// Install a schedule controller (annsim::explore). Joins the engine's
  /// rank threads; the next operation starts them again, and under an armed
  /// controller that start claims the cohort, calling thread included, so
  /// every later operation is one controlled run in which message
  /// deliveries, timed waits and RMA ops are the controller's choice points,
  /// the operation boundaries too. Pass nullptr, from the thread that issued
  /// the controlled operations, to end the run: the worker ranks shut down
  /// under the controller and the next operation starts them free-running.
  /// Controlled runs require `threads_per_worker == 1` (every engine thread
  /// must be a tracked rank, or a search team would race around the
  /// controller) and, for searches, `result_timeout_ms == 0` (the detection
  /// deadlines read the wall clock, which the controller does not drive).
  void set_schedule(std::shared_ptr<mpi::ScheduleController> schedule);

  /// Rank threads this engine has started over its lifetime. A free-running
  /// engine starts each of its two cohorts once: 2 * n_workers after it has
  /// run a search and a build or write operation.
  [[nodiscard]] std::uint64_t rank_threads_started() const;

 private:
  DistributedAnnEngine() = default;  // for load()

  struct Replica {
    // Heap-allocated so the index's dataset pointer stays valid when the
    // Replica moves into the worker store.
    std::unique_ptr<data::Dataset> data;
    std::unique_ptr<LocalIndex> index;
  };
  /// All replicas a worker hosts, keyed by partition id.
  using WorkerStore = std::map<PartitionId, Replica>;

  struct BuildRound;
  /// One persistent cohort: a runtime whose P worker ranks loop over the
  /// operations this engine sends them (DESIGN.md §4.15).
  struct Lane {
    std::mutex mu;  ///< one operation (or start/stop) at a time
    std::unique_ptr<mpi::Runtime> rt;  ///< null until the first operation
    /// The engine the current operation runs for, set under `mu` before the
    /// control message goes out, so a moved engine keeps its cohorts.
    DistributedAnnEngine* engine = nullptr;
    /// Search lane: every rank's handle on the result window, by rank
    /// (created by the first search).
    std::vector<mpi::Window> windows;
    std::size_t window_bytes = 0;  ///< the current operation's slots
    /// Build only: the round's shared inputs and per-worker outputs.
    BuildRound* build = nullptr;
    std::uint64_t retired_threads = 0;  ///< threads of stopped runtimes
  };
  /// Run one operation on `lane` with the calling thread as rank 0,
  /// starting the lane's cohort on first use. `op` is the control message
  /// each worker's loop (worker_op) dispatches on; `injector` gates the
  /// operation's traffic (null: fault-free); `before`, when set, runs
  /// under the lane's lock just before the control message goes out.
  /// Returns the operation's traffic.
  mpi::TrafficStats run_op(Lane& lane, std::span<const std::byte> op,
                           std::shared_ptr<mpi::FaultInjector> injector,
                           const std::function<void(mpi::Comm&)>& master,
                           const std::function<void()>& before = {});
  /// The worker ranks' one loop body: run the operation `op` names.
  void worker_op(mpi::Comm& world, std::span<const std::byte> op);
  void worker_build(mpi::Comm& world);
  void worker_write(mpi::Comm& world, const std::vector<char>& alive);
  void worker_compact(mpi::Comm& world, const std::vector<char>& alive);
  void worker_heal(mpi::Comm& world, BinaryReader& transfers);
  /// Stop both cohorts and fold their check reports into check_report_.
  void retire_lanes();
  /// The rank's handle on the search lane's result window, created
  /// collectively by the first search.
  mpi::Window& result_window(mpi::Comm& world);
  /// Size the result window for an operation of `bytes`: rank 0 grows its
  /// region only when an operation outgrows it. The stream's master stamps
  /// the slots.
  void prepare_result_window(std::size_t bytes);

  /// Algorithms 3 and 5 as one stream loop (DESIGN.md §4.15), run as rank 0
  /// with the liveness it may update.
  void master_stream(mpi::Comm& world, QuerySource& source, std::size_t k,
                     std::size_t slots, std::size_t ef, SearchStats& stats,
                     mpi::FaultInjector* fault, std::vector<char>& alive,
                     std::vector<std::uint64_t>& heartbeats);
  /// Algorithm 4: takes the master's jobs until EOQ, then sends the done
  /// notice. Results go back by accumulate into the result window; the one
  /// that completes a slot also sends the master kTagSlotFull. Jobs are
  /// checked against `bounds`. Under a finite detection deadline the loop also
  /// beats the master's liveness beacon, between jobs and while it waits.
  void worker_search(mpi::Comm& world, std::size_t k,
                     const BatchBounds& bounds);
  [[nodiscard]] std::chrono::microseconds detection_timeout() const;
  /// Lazily create (or return) the engine-owned fault injector shared by
  /// every operation, so death flags and op budgets persist across
  /// batches. Null when the config's fault plan is inert.
  std::shared_ptr<mpi::FaultInjector> shared_injector();
  /// Install the verifier on an engine runtime per config_/environment
  /// (reserved + best-effort tag sets included). No-op when checking is off.
  void configure_runtime_check(mpi::Runtime& rt) const;
  /// One write round over the p2p plane: routes `rows` (when non-null) and
  /// broadcasts `deletes`. Shared implementation of insert()/remove().
  WriteStats apply_writes(const data::Dataset* rows,
                          std::span<const GlobalId> deletes);
  /// A write-plane receive: recv_for under the round deadline once an
  /// injector is armed (a dead peer is silent), else a blocking recv.
  std::optional<mpi::Message> recv_write_plane(mpi::Comm& world, int source,
                                               mpi::Tag tag) const;
  /// Group-commit worker `w`'s WAL frames for the round (true without a
  /// WAL); false means a disk fault fired and the worker must stay silent.
  bool commit_wal(std::size_t w);
  /// Liveness snapshot for the write plane, derived from the fault injector
  /// (not ClusterHealth, which belongs to the search plane's thread).
  std::vector<char> write_plane_alive(const mpi::FaultInjector* injector) const;
  /// What snapshot_partitions() committed for one partition.
  struct PartitionSnapshot {
    std::uint64_t watermark = 0;          ///< WAL LSN the snapshot covers
    std::uint64_t manifest_checksum = 0;  ///< names the committed snapshot
  };
  /// Snapshot each partition that still has a copy into `store`, from its
  /// first live workgroup member (a dead host only when no live copy is
  /// left); empty entries had no copy. Caller holds the topology lock.
  std::vector<std::optional<PartitionSnapshot>> snapshot_partitions(
      const recovery::CheckpointStore& store) const;
  /// The one way a replica comes back from a checkpoint, for heal() and
  /// load(): decode `snap` into worker `w`'s store, then replay w's WAL
  /// records for that partition past the snapshot's watermark (idempotent:
  /// inserts skip ids already present). Returns the records replayed.
  /// Caller holds the topology lock exclusively (or owns the engine).
  std::size_t restore_replica(
      std::size_t w, const recovery::CheckpointStore::LoadedPartition& snap);
  /// Open (recovering if present) each worker's WAL under config_.wal_dir.
  /// No-op when wal_dir is empty.
  void open_wals();
  const data::Dataset* base_ = nullptr;  ///< null after load()
  EngineConfig config_;
  std::optional<vptree::PartitionTree> router_;
  std::vector<WorkerStore> workers_;  ///< indexed by worker id (0..P-1)
  BuildStats build_stats_;
  /// Fault state shared by both cohorts and every batch: a rank killed in
  /// batch n stays dead in batch n+1 until heal() revives it.
  std::shared_ptr<mpi::FaultInjector> injector_;
  /// Schedule controller installed on the engine's cohorts (null = free-run).
  std::shared_ptr<mpi::ScheduleController> schedule_;
  recovery::ClusterHealth health_;  ///< persistent liveness record
  check::CheckReport check_report_;  ///< merged from retired cohorts
  /// Next global id handed to a streamed insert. Starts one past the largest
  /// build-corpus id and never reuses a value, even across save/load.
  GlobalId next_stream_id_ = 0;
  /// Next write-ahead-log sequence number the master will assign. Global and
  /// monotone across all workers (every replica of one row logs the same
  /// LSN), persisted by save(), advanced past the replayed tail by load().
  std::uint64_t next_lsn_ = 1;
  /// Per-worker write-ahead logs (empty until wal_dir is configured).
  /// Indexed by worker id, parallel to workers_.
  std::vector<std::unique_ptr<recovery::WriteLog>> wals_;
  /// Highest LSN issued against each partition (deletes broadcast, so they
  /// bump every partition). heal() compares a revived worker's synced log
  /// position against this to decide whether its own WAL tail is current
  /// enough to replay, or whether the replica must stream from a peer that
  /// saw the writes the dead worker missed.
  std::vector<std::uint64_t> partition_last_lsn_;
  /// Write rounds since the last checkpoint (drives checkpoint_every_rounds).
  std::size_t rounds_since_checkpoint_ = 0;

  /// Synchronization for concurrent search / write / compact / heal.
  /// Heap-allocated so the engine stays movable (load() returns by value).
  ///   - topology: shared while a runtime reads `workers_` (search, write,
  ///     compact rounds), exclusive when the stores mutate (post-batch death
  ///     fold clearing a dead worker's store, heal() restoring it).
  ///   - write_api: serializes insert/remove/compact rounds end to end
  ///     (protects next_stream_id_ / next_lsn_ and keeps one write round in
  ///     flight); save() holds it too, so an image is at a round boundary.
  ///   - check / injector: guard check_report_ merges and lazy injector
  ///     creation, which writes and searches may race on.
  struct Sync {
    std::shared_mutex topology;
    std::mutex write_api;
    std::mutex check;
    std::mutex injector;
    std::mutex checkpoint;
  };
  std::unique_ptr<Sync> sync_ = std::make_unique<Sync>();
  /// The open stream's rank 0, for wake_stream(). Heap-allocated so the
  /// engine stays movable.
  struct StreamDoor {
    std::mutex mu;
    mpi::Comm* master = nullptr;  ///< rank 0 of the open stream, else null
    bool wake_pending = false;    ///< a wake sits in rank 0's mailbox
  };
  std::unique_ptr<StreamDoor> door_ = std::make_unique<StreamDoor>();

  /// The two persistent cohorts. Searches run on one; build, write rounds,
  /// compaction and heal streams, which write_api or the exclusive topology
  /// lock already serialize, run on the other, so a search keeps
  /// overlapping a background compaction. Declared last: destroyed first,
  /// joining the rank threads before anything they read goes away.
  std::unique_ptr<Lane> search_lane_ = std::make_unique<Lane>();
  std::unique_ptr<Lane> admin_lane_ = std::make_unique<Lane>();
};

}  // namespace annsim::core
