#pragma once
/// \file query_server.hpp
/// \brief Online query-serving front end for the distributed ANN engine.
///
/// The paper's engine answers one pre-materialized offline batch
/// (Algorithms 3-5). Production traffic instead arrives as individual
/// requests over time, so web-scale ANN deployments put a serving tier in
/// front of the index (LANNS batches online lookups the same way). The
/// QueryServer is that tier:
///
///     clients ──submit()──► bounded admission queue ──► query stream
///         ◄──future◄── per-request completion ◄── DistributedAnnEngine
///
/// The scheduler thread is rank 0 of the engine's query stream
/// (DistributedAnnEngine::stream): a stream opens when work reaches an idle
/// server and keeps up to `max_batch` requests in flight, admitting each
/// queued request as soon as a slot is free — no batch wait and no batch
/// barrier, as the paper's master loops over queries (Algorithms 3-5). An
/// arrival wakes the stream's master through the engine (wake_stream). The
/// stream ends when nothing is queued or in flight, or after it declares a
/// worker dead, so healing runs between streams. Each request carries an
/// optional deadline; expired requests complete with a timeout status
/// instead of blocking their callers. Admission is bounded: when the queue
/// is full the server either rejects (default, load-shedding) or blocks the
/// submitter (backpressure).
///
/// Overload control (DESIGN.md §4.11) keeps goodput bounded past capacity:
/// deadline-aware admission (EDF dequeue, expired-on-arrival and
/// won't-make-it culling from per-query service-time EWMAs), brownout search
/// (a load-proportional controller that shrinks per-query effort — HNSW ef
/// and partitions probed — when queue delay crosses a CoDel-style target),
/// priority classes (interactive degrades last), and a circuit breaker that
/// fast-fails admissions while the engine cannot meet deadlines. All of
/// them act per query or per dispatch round.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/serve/server_metrics.hpp"

namespace annsim::serve {

enum class QueryStatus : std::uint8_t {
  kOk = 0,        ///< answered within deadline
  kRejected,      ///< bounced at admission (queue full, reject policy)
  kDeadlineExpired,  ///< deadline passed; neighbors may be present if the
                     ///< search finished late (partial service)
  kShutdown,      ///< server stopped before the request could be served
  kError,         ///< engine failure while serving the request
  kDegraded,      ///< answered, but workers failed mid-search and the retry
                  ///< budget ran out: partial coverage (see partitions_*)
  kShed,          ///< culled by overload control before any worker touched
                  ///< it: expired on arrival, won't-make-it, evicted by a
                  ///< higher class, or fast-failed by an open breaker
};

[[nodiscard]] const char* to_string(QueryStatus s) noexcept;

/// Request priority class. Overload control degrades strictly bottom-up:
/// best-effort sheds and browns out first, batch next, interactive last.
enum class PriorityClass : std::uint8_t {
  kInteractive = 0,  ///< user-facing; degrades last
  kBatch = 1,        ///< offline pipelines that still want answers
  kBestEffort = 2,   ///< opportunistic traffic; first to shed
};

inline constexpr std::size_t kPriorityClasses = 3;

[[nodiscard]] const char* to_string(PriorityClass c) noexcept;

struct QueryResponse {
  QueryStatus status = QueryStatus::kShutdown;
  std::vector<Neighbor> neighbors;  ///< ascending by distance, <= requested k
  double queue_ms = 0.0;   ///< admission -> dispatch into the stream
  double total_ms = 0.0;   ///< admission -> completion (end-to-end latency)
  std::size_t batch_size = 0;  ///< queries in flight when this one dispatched
  /// Coverage the engine reported for this query (searched < planned marks a
  /// degraded answer; both 0 when the engine runs without failure detection).
  std::uint32_t partitions_searched = 0;
  std::uint32_t partitions_planned = 0;
  /// Brownout effort this request was served at: 1.0 = full ef / fan-out,
  /// lower = the controller traded recall for latency under pressure.
  double effort_factor = 1.0;
};

/// What to do with a submit() when the admission queue is full.
enum class OverflowPolicy : std::uint8_t {
  kReject,  ///< complete immediately with kRejected (load shedding)
  kBlock,   ///< block the submitting thread until space frees (backpressure)
};

struct ServerConfig {
  std::size_t max_batch = 32;      ///< slots: queries in flight at once
  /// Ignored: a request is dispatched as soon as a slot is free. Kept (and
  /// checked to be >= 0) only because perfbench/src/workloads.cpp sets it.
  double max_delay_ms = 2.0;
  std::size_t queue_capacity = 1024;  ///< bounded admission queue
  OverflowPolicy overflow = OverflowPolicy::kReject;
  std::size_t ef = 0;              ///< engine ef_search override (0 = default)
  /// Degraded-answer retry budget: a query the engine answers with partial
  /// coverage is requeued up to this many times (0 = surface kDegraded
  /// immediately) as long as a retry can still beat the request's deadline.
  std::size_t max_retries = 0;
  /// Wait this long before a degraded retry is dispatched again, giving the
  /// engine's failover a fresh worker set time to absorb the load.
  double retry_backoff_ms = 0.0;
  /// Self-healing: after a stream that leaves workers dead, run the
  /// engine's heal() before the next one opens (scheduler thread, between
  /// streams) so it dispatches to restored replicas. Degraded answers stop
  /// occurring as soon as a heal restores full coverage.
  bool auto_heal = false;
  /// Live-mutability: when any replica's mutable delta reaches this fill
  /// (checked whenever a stream ends), kick off engine compact() on a
  /// background thread so re-freezing overlaps serving instead of stalling
  /// it. 0 (default) disables; requires a segmented engine when set.
  std::size_t compact_at_fill = 0;

  // ---- overload control (DESIGN.md §4.11; all off by default) ----
  /// Deadline-aware admission: dequeue earliest-deadline-first (within each
  /// priority class), cull requests that are expired on arrival or that the
  /// service-time EWMA says cannot make their deadline (kShed), evict the
  /// lowest class from a full queue for a higher-class arrival.
  bool deadline_scheduling = false;
  /// Brownout target for measured queue delay (CoDel-style): when a
  /// dispatch round admits a request that queued longer than this, the
  /// controller raises pressure and shrinks per-query search effort
  /// (bottom-up by class); when delay falls below half the target, pressure
  /// decays and full effort returns. <= 0 disables brownout.
  double brownout_target_ms = 0.0;
  /// Lowest effort factor brownout may dispatch (scales ef and partitions
  /// probed). Must be in (0, 1].
  double brownout_floor = 0.25;
  /// Circuit breaker: trip when the deadline-miss + failure fraction over a
  /// window of `breaker_window` outcomes reaches this ratio. While open, new
  /// admissions fast-fail (kShed) until `breaker_open_ms` elapses; then up
  /// to `breaker_probes` half-open probes test recovery — one probe failure
  /// re-opens, all probes succeeding closes. <= 0 disables the breaker.
  double breaker_threshold = 0.0;
  std::size_t breaker_window = 64;  ///< outcomes per trip evaluation (>= 1)
  double breaker_open_ms = 50.0;    ///< open -> half-open delay (>= 0)
  std::size_t breaker_probes = 8;   ///< half-open probe admissions (>= 1)
};

/// Thread-safe online front end over a built DistributedAnnEngine. The
/// engine is referenced, not owned, and must outlive the server; its one
/// scheduler thread is the master of the engine's query streams, one at a
/// time. The server is the streams' QuerySource.
class QueryServer final : private core::QuerySource {
 public:
  QueryServer(core::DistributedAnnEngine* engine, ServerConfig config);
  ~QueryServer();  ///< graceful stop(): drains pending requests

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Submit one query from any thread. `deadline_ms` <= 0 means no deadline.
  /// The returned future completes exactly once — with results, a timeout,
  /// a rejection, a shed, or a shutdown status; it never blocks forever.
  /// `cls` is the request's priority class: under overload, lower classes
  /// shed and brown out before higher ones.
  [[nodiscard]] std::future<QueryResponse> submit(
      std::vector<float> query, std::size_t k, double deadline_ms = 0.0,
      PriorityClass cls = PriorityClass::kInteractive);

  /// Stop accepting requests, drain everything already admitted, and join
  /// the scheduler. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] MetricsReport metrics() const { return metrics_.report(); }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::vector<float> query;
    std::size_t k = 0;
    PriorityClass cls = PriorityClass::kInteractive;
    Clock::time_point admitted{};
    Clock::time_point deadline = Clock::time_point::max();
    std::promise<QueryResponse> promise;
    std::size_t retries_used = 0;  ///< degraded re-runs consumed so far
    /// Backoff gate: the scheduler skips this request until the gate opens.
    Clock::time_point not_before = Clock::time_point::min();
    std::uint64_t seq = 0;  ///< admission order, the EDF tie-break
    bool breaker_probe = false;  ///< admitted as a half-open recovery probe
    double effort = 1.0;  ///< brownout factor assigned at dispatch
    Clock::time_point dispatched{};  ///< entered the stream
    std::size_t in_flight = 0;       ///< queries in flight at dispatch
  };

  /// Per-engine circuit breaker (DESIGN.md §4.11). Own mutex, taken alone
  /// or under mu_ (never the other way round).
  struct Breaker {
    enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };
    std::mutex mu;
    State state = State::kClosed;
    Clock::time_point open_until{};
    std::size_t window_total = 0, window_failures = 0;
    std::size_t probes_issued = 0, probes_done = 0;
  };

  void scheduler_main();
  /// Run one engine stream with this server as its source, then the
  /// between-stream duties: the error net, auto-heal, compaction.
  void run_stream(std::size_t k);
  // core::QuerySource, called on the scheduler thread inside a stream.
  bool pull(std::size_t free, std::vector<core::StreamQuery>& out,
            Clock::time_point& wake_at) override;
  void done(std::uint64_t token, std::vector<Neighbor>&& result,
            const core::QueryCoverage& coverage) override;
  /// Complete every queued request whose deadline has passed. Caller holds mu_.
  void expire_overdue_locked(Clock::time_point now);
  /// Between-stream compaction trigger: start a background engine compact()
  /// when the delta fill crosses config_.compact_at_fill and none is running.
  void maybe_compact();
  /// Breaker admission gate. Returns false when the request must fast-fail;
  /// otherwise sets `*probe` when the admission is a half-open probe.
  bool breaker_admit(Clock::time_point now, bool* probe);
  /// Fold one request outcome (deadline made vs missed/failed) into the
  /// breaker window; trips, re-opens, or closes the breaker as warranted.
  void breaker_record(bool success, bool probe);
  /// Brownout effort factor for `cls` at the current pressure. 1.0 = full.
  [[nodiscard]] double effort_factor(PriorityClass cls) const;
  /// Complete `p` as shed (kShed) without touching any worker.
  void shed_request(Pending&& p, Clock::time_point now);

  core::DistributedAnnEngine* engine_;
  ServerConfig config_;
  std::size_t dim_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< scheduler wakeups
  std::condition_variable cv_space_;  ///< blocked submitters (kBlock policy)
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::uint64_t next_seq_ = 0;  ///< admission counter (under mu_)
  /// The open stream's k: a queued request with a larger k ends the stream
  /// and opens the next (under mu_).
  std::size_t stream_k_ = 0;
  /// The stream's last dispatch round left slots free, so the next arrival
  /// must wake its master (under mu_; submit() clears it when it wakes).
  bool master_hungry_ = false;
  /// The open stream has run a dispatch round (under mu_).
  bool pulled_ = false;
  /// Requests in the open stream, by token (their admission seq). Only the
  /// scheduler thread touches it; node-based, so each query vector stays
  /// where the stream's StreamQuery points until done() takes it.
  std::unordered_map<std::uint64_t, Pending> flight_;

  // ---- overload controller state (under mu_) ----
  /// Per-query EWMAs, 0 until the first answer: service time (dispatch ->
  /// answer) and drain cost (service time / queries in flight at dispatch,
  /// what one more query ahead in the queue costs). Read at admission,
  /// written as each answer lands.
  double ewma_service_ms_ = 0.0;
  double ewma_query_ms_ = 0.0;
  /// Brownout pressure in [0, 1], moved once per dispatch round.
  double pressure_ = 0.0;
  Breaker breaker_;

  ServerMetrics metrics_;
  std::thread scheduler_;

  /// Background compaction: at most one in flight; the engine's own locking
  /// lets it overlap the scheduler's streams (hot-swap views).
  std::thread compactor_;
  std::atomic<bool> compacting_{false};
};

}  // namespace annsim::serve
