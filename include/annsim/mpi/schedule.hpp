#pragma once
/// \file schedule.hpp
/// \brief Controlled scheduling of the simulated MPI runtime (annsim::explore).
///
/// A ScheduleController serializes the rank threads of a Runtime onto one
/// logical processor and decides, at every *choice point*, which eligible
/// event happens next:
///
///  * kDeliver — a sent message moves from its (sender, receiver, comm)
///    channel into the receiver's mailbox (completing a matching recv),
///  * kTimeout — a bounded wait (`Request::wait_for` / `Comm::recv_for`)
///    gives up instead of completing,
///  * kRma     — a one-sided window operation executes at its target.
///
/// The model is quiescence-based: controlled threads run freely between
/// choice points; the scheduler only commits an event when every tracked
/// thread is parked (blocked in a wait, a bounded wait, an RMA op, or a
/// completion poll). Because each rank is single-threaded between parks, the
/// whole execution is a deterministic function of the sequence of decisions —
/// which is exactly what makes a run replayable from its decision trace.
///
/// Decisions are delegated to a pluggable ScheduleStrategy (random walk,
/// PCT-style priorities, exhaustive enumeration — see annsim/explore/).
/// Only *branch points* (two or more eligible events) consult the strategy
/// and are recorded in the trace; forced commits are folded into the digest
/// but cost nothing to replay.
///
/// Threads the runtime did not claim (engine helper threads such as a
/// worker's search team) are not tracked: their operations pass through
/// uncontrolled. Exploration scenarios therefore run each rank
/// single-threaded. A persistent world (Runtime::start) claims its worker
/// threads once and its calling thread as rank 0, so one controlled run
/// spans every operation issued on it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "annsim/common/types.hpp"

namespace annsim::mpi {

/// What kind of event a choice point selects.
enum class ChoiceKind : std::uint8_t {
  kDeliver = 0,  ///< move a channel-head message into the dest mailbox
  kTimeout = 1,  ///< fire the virtual deadline of a parked bounded wait
  kRma = 2,      ///< let a parked one-sided op execute at its target
};

/// One eligible event at a choice point. `seq` disambiguates events that
/// share endpoints: the position in its channel for deliveries, a per-rank
/// operation counter for timeouts and RMA ops. The tuple
/// (kind, source, dest, tag, comm_id, seq) identifies the event canonically;
/// eligible sets are presented to strategies sorted by exactly that tuple.
struct ChoiceEvent {
  ChoiceKind kind = ChoiceKind::kDeliver;
  int source = -1;            ///< sender / waiter / RMA-origin global rank
  int dest = -1;              ///< receiver / RMA-target global rank
                              ///< (== source for timeouts)
  std::int32_t tag = -1;      ///< message tag; -1 for timeouts and RMA
  std::uint64_t comm_id = 0;  ///< communicator (or window) id
  std::uint64_t seq = 0;

  friend bool operator==(const ChoiceEvent&, const ChoiceEvent&) = default;
  friend auto operator<=>(const ChoiceEvent&, const ChoiceEvent&) = default;
};

/// Render "deliver 0->2 tag=15 comm=0 seq=3" for dumps and errors.
[[nodiscard]] std::string to_string(const ChoiceEvent& ev);

/// Picks which eligible event commits at a branch point. `eligible` is
/// canonically sorted and has at least two entries; the returned index must
/// be < eligible.size(). Called with the controller lock held — strategies
/// must not call back into the runtime.
class ScheduleStrategy {
 public:
  virtual ~ScheduleStrategy() = default;
  virtual std::size_t pick(const std::vector<ChoiceEvent>& eligible) = 0;
};

struct ScheduleOptions {
  /// Hard stop: a schedule committing more events than this is declared
  /// stuck (an exploration bug or a livelocking program), and every parked
  /// thread unwinds with an error.
  std::uint64_t max_commits = 1u << 20;
};

/// The record of one controlled execution. `choices[i]` is the index picked
/// at the i-th branch point; the digest folds every committed event (forced
/// and chosen) in commit order, so two runs with equal digests executed the
/// same event sequence — that is the replay fidelity check.
struct ScheduleTrace {
  std::vector<std::uint8_t> choices;
  std::uint64_t branch_points = 0;
  std::uint64_t commits = 0;
  std::uint64_t digest = 14695981039346656037ULL;  ///< FNV-1a offset basis
  bool deadlocked = false;
  std::string error;  ///< non-empty when the schedule was aborted
};

/// Serializes the rank threads of one (or several, sequential) Runtimes.
/// Install with Runtime::set_schedule before run(); arm() between runs.
/// All runtime-facing entry points are safe to call from untracked threads —
/// they simply pass through.
class ScheduleController {
 public:
  ScheduleController();
  ~ScheduleController();

  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  /// Take control of subsequent runs. Must be called at quiescence (no
  /// tracked threads); resets the trace.
  void arm(std::shared_ptr<ScheduleStrategy> strategy, ScheduleOptions opts = {});
  /// Release control and return the trace of everything since arm().
  /// Must be called at quiescence.
  ScheduleTrace disarm();
  [[nodiscard]] bool armed() const noexcept;

  // --- runtime-facing hooks (called by the mpi layer, not by users) ---

  /// Claim `n_threads` about-to-spawn rank threads, in addition to any
  /// cohort already claimed. Returns false (and claims nothing) when not
  /// armed. Counting the whole cohort *before* any thread starts keeps the
  /// scheduler from firing on a partial view.
  bool begin_run(int n_threads);
  /// Claim the calling thread itself (a persistent world's rank 0). Nested
  /// claims by the same thread count once; each needs a release_caller().
  /// Returns false (and claims nothing) when not armed.
  bool claim_caller();
  /// Drop one claim_caller(); the last one finishes the thread.
  void release_caller();
  /// Mark the calling thread as one of the claimed cohort.
  void attach_thread();
  /// The calling thread is done (normally or unwinding). When the last
  /// tracked thread finishes, undelivered channels flush to their mailboxes
  /// in canonical order so post-run sweeps see every sent message.
  void finish_thread();
  /// True when the calling thread is tracked by this armed controller.
  [[nodiscard]] bool controls_this_thread() const noexcept;

  /// Queue a delivery decided later by the scheduler. Returns false (nothing
  /// queued) when the calling thread is not controlled — the caller then
  /// delivers directly. `commit` performs the actual mailbox delivery; it
  /// runs under the controller lock and must not block. `owner` names the
  /// runtime whose mailbox `commit` writes (see flush_owner).
  bool submit(ChoiceEvent ev, std::function<void()> commit,
              const void* owner = nullptr);
  /// Commit, in canonical order, every queued delivery of `owner`: a
  /// runtime shutting down while another cohort stays tracked flushes its
  /// own channels before its mailboxes go away.
  void flush_owner(const void* owner);

  /// Park until `ready()` holds. Returns false when the calling thread is
  /// not controlled (caller falls back to its own blocking wait). `ready` is
  /// re-evaluated by the scheduler after every commit; it may take fine locks
  /// (mailbox/recv-state) but must not call back into the controller.
  bool wait_point(int rank, std::function<bool()> ready);

  enum class TimedOutcome {
    kPassThrough,  ///< thread not controlled: caller performs a real timed wait
    kReady,        ///< ready() holds — the awaited completion was scheduled
    kTimedOut,     ///< the scheduler chose this wait's timeout event
  };
  /// Bounded-wait choice point: the real duration is virtualized away and
  /// the schedule decides whether the wait completes or times out.
  TimedOutcome timed_wait_point(int rank, std::function<bool()> ready);

  /// One-sided-op choice point: park until the scheduler grants this origin
  /// its turn at `target`. Returns immediately (false) when not controlled;
  /// the caller performs the window operation after this returns either way.
  bool rma_point(int origin, int target, std::uint64_t window_id);

  /// Re-run the scheduler if everything is parked. Called after an
  /// *untracked* thread delivers directly into a mailbox, so a parked
  /// tracked thread whose predicate just became true is woken.
  void poke();

 private:
  struct Parked;
  struct ChannelEntry;
  using ChannelKey = std::tuple<int, int, std::uint64_t>;  // source, dest, comm

  void park_and_wait(std::unique_lock<std::mutex>& lk, Parked& entry);
  void schedule_locked();
  void flush_channels_locked(const void* owner = nullptr, bool all = true);
  void fail_locked(bool deadlock, std::string why);
  void fold_digest_locked(const ChoiceEvent& ev);
  [[nodiscard]] std::string dump_locked() const;

  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  bool stop_ = false;  ///< a failure was declared; parked threads unwind
  std::shared_ptr<ScheduleStrategy> strategy_;
  ScheduleOptions opts_;
  ScheduleTrace trace_;

  int tracked_ = 0;   ///< threads claimed by begin_run, not yet finished
  int runnable_ = 0;  ///< tracked threads not currently parked
  std::map<ChannelKey, std::list<ChannelEntry>> channels_;
  std::map<ChannelKey, std::uint64_t> channel_seq_;
  std::map<int, std::uint64_t> rank_seq_;  ///< per-rank timeout/RMA counters
  std::list<Parked*> parked_;
};

}  // namespace annsim::mpi
