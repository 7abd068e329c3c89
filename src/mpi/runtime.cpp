#include "annsim/mpi/mpi.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "annsim/common/error.hpp"
#include "annsim/mpi/schedule.hpp"

namespace annsim::mpi {

namespace detail {

// Internal collective tags (user tags must be >= 0; kAnyTag is -1).
inline constexpr Tag kTagBarrier = -10;
inline constexpr Tag kTagBarrierRelease = -11;
inline constexpr Tag kTagBcast = -12;
inline constexpr Tag kTagGather = -13;
inline constexpr Tag kTagScatter = -14;
inline constexpr Tag kTagAlltoallv = -15;
/// The persistent world's control plane: one message per worker per
/// operation. Internal (never fault-gated, exempt from the tag rules) but
/// counted as p2p traffic, because it is one.
inline constexpr Tag kTagControl = -16;
/// Control payload's first byte.
inline constexpr std::byte kControlOp{0};
inline constexpr std::byte kControlShutdown{1};
/// Matching context of the persistent world's n-th operation: above every
/// id split() hands out, and known to both sides in advance (each worker
/// counts operations), so the control message itself travels in it.
inline constexpr std::uint64_t kContextBase = std::uint64_t{1} << 62;

/// In-flight message inside a mailbox.
struct Envelope {
  std::uint64_t comm_id = 0;
  int source_local = kAnySource;  ///< sender's rank within the communicator
  int source_global = kAnySource; ///< sender's global rank (diagnostics)
  Tag tag = kAnyTag;
  std::vector<std::byte> payload;
};

struct Mailbox;
struct Checker;

/// Shared state of one posted (i)recv.
struct RecvState {
  std::mutex mu;
  std::condition_variable cv;
  bool completed = false;
  bool cancelled = false;
  Message msg;

  // matching criteria
  std::uint64_t comm_id = 0;
  int source = kAnySource;  ///< comm-local source filter
  Tag tag = kAnyTag;
  std::vector<Tag> tag_set; ///< non-empty => match any of these (irecv_tags)

  Mailbox* owner = nullptr;  ///< mailbox holding this pending recv

  // --- annsim::check instrumentation (inert when checker == nullptr) ---
  std::shared_ptr<Checker> checker;
  int posted_rank = -1;                ///< poster's global rank
  int posted_source_global = kAnySource;  ///< source filter as a global rank
  bool observed = false;  ///< wait/test saw completion, take(), or cancel()

  // --- controlled scheduling (inert when sched == nullptr or disarmed) ---
  std::shared_ptr<ScheduleController> sched;

  ~RecvState();
};

struct Mailbox {
  std::mutex mu;
  std::list<Envelope> queue;                          ///< unmatched messages, FIFO
  std::list<std::shared_ptr<RecvState>> pending;      ///< posted recvs, in order
};

struct WindowState {
  std::vector<std::vector<std::byte>> buffers;        ///< per comm rank
  std::vector<std::unique_ptr<std::mutex>> target_mu; ///< per-target atomicity
  std::vector<std::vector<char>> locked;              ///< [origin][target] epoch flags
  RuntimeState* rt = nullptr;
  std::vector<int> members;                           ///< global rank per comm rank
  std::uint64_t id = 0;                               ///< window id (choice points)
};

/// Per-rank traffic counters. Atomic because a rank's whole thread team (the
/// engine runs a search team per worker rank) funnels sends and RMA ops
/// through the same entry concurrently.
struct AtomicTraffic {
  std::atomic<std::uint64_t> p2p_messages{0};
  std::atomic<std::uint64_t> p2p_bytes{0};
  std::atomic<std::uint64_t> rma_ops{0};
  std::atomic<std::uint64_t> rma_bytes{0};
  std::atomic<std::uint64_t> collective_ops{0};
  std::atomic<std::uint64_t> collective_bytes{0};

  [[nodiscard]] TrafficStats snapshot() const {
    TrafficStats s;
    s.p2p_messages = p2p_messages.load(std::memory_order_relaxed);
    s.p2p_bytes = p2p_bytes.load(std::memory_order_relaxed);
    s.rma_ops = rma_ops.load(std::memory_order_relaxed);
    s.rma_bytes = rma_bytes.load(std::memory_order_relaxed);
    s.collective_ops = collective_ops.load(std::memory_order_relaxed);
    s.collective_bytes = collective_bytes.load(std::memory_order_relaxed);
    return s;
  }
};

/// The MPI usage verifier (annsim::check). One per Runtime, shared into every
/// RecvState it instruments. All mutable state behind `mu` except `aborted`,
/// which blocked waiters poll without a lock.
///
/// Lock order: Checker::mu may be taken alone, and RecvState::mu may be taken
/// *under* Checker::mu (cycle re-verification). The reverse never happens —
/// Request::wait drops the state mutex before calling into the checker.
struct Checker {
  explicit Checker(check::CheckOptions o) : opts(std::move(o)) {
    reserved.insert(opts.reserved_tags.begin(), opts.reserved_tags.end());
    best_effort.insert(opts.best_effort_tags.begin(), opts.best_effort_tags.end());
  }

  check::CheckOptions opts;
  std::set<Tag> reserved;
  std::set<Tag> best_effort;

  mutable std::mutex mu;
  check::CheckReport report;  ///< cumulative across run() calls

  /// One entry per unbounded wait blocked past `opts.deadlock_after`,
  /// keyed by the RecvState being waited on. Edge: posted_rank -> waiting_on.
  struct BlockedWait {
    int rank = -1;        ///< waiter's global rank
    int waiting_on = -1;  ///< awaited source's global rank (never kAnySource)
    Tag tag = kAnyTag;
    std::chrono::steady_clock::time_point since;
    std::weak_ptr<RecvState> state;
  };
  std::map<const RecvState*, BlockedWait> blocked;
  std::chrono::steady_clock::time_point last_scan{};

  std::atomic<bool> aborted{false};
  std::string deadlock_dump;  ///< written under mu before aborted flips

  void violate(check::Rule rule, int rank, int peer, Tag tag,
               std::string detail) {
    std::lock_guard lk(mu);
    violate_locked(rule, rank, peer, tag, std::move(detail));
  }

  void violate_locked(check::Rule rule, int rank, int peer, Tag tag,
                      std::string detail) {
    ++report.counts[std::size_t(rule)];
    std::size_t have = 0;
    for (const auto& o : report.occurrences) {
      if (o.rule == rule) ++have;
    }
    if (have < opts.max_occurrences) {
      report.occurrences.push_back(
          check::Occurrence{rule, rank, peer, tag, std::move(detail)});
    }
  }

  [[nodiscard]] bool is_reserved(Tag tag) const { return reserved.count(tag) > 0; }
  [[nodiscard]] bool is_best_effort(Tag tag) const {
    return best_effort.count(tag) > 0;
  }

  /// Enter a blocked unbounded wait into the wait-for graph. Any-source
  /// waits carry no definite edge and are skipped (returns false).
  bool register_blocked(const std::shared_ptr<RecvState>& state) {
    if (state->posted_source_global == kAnySource) return false;
    BlockedWait b;
    b.rank = state->posted_rank;
    b.waiting_on = state->posted_source_global;
    b.tag = state->tag;
    b.since = std::chrono::steady_clock::now();
    b.state = state;
    std::lock_guard lk(mu);
    blocked[state.get()] = std::move(b);
    return true;
  }

  void unregister_blocked(const RecvState* state) {
    std::lock_guard lk(mu);
    blocked.erase(state);
  }

  [[noreturn]] void throw_deadlock() const {
    std::string dump;
    {
      std::lock_guard lk(mu);
      dump = deadlock_dump;
    }
    throw Error("annsim::check: deadlock detected\n" + dump);
  }

  /// Throttled cycle scan over the wait-for graph. Called by blocked waiters
  /// on their wakeup slices. On a confirmed cycle: record the violation,
  /// write the dump, flip `aborted` — every checked wait then throws.
  void maybe_scan() {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard lk(mu);
    if (aborted.load(std::memory_order_relaxed)) return;
    if (now - last_scan < std::chrono::milliseconds(50)) return;
    last_scan = now;

    // Prune entries whose wait already completed or whose state died: a
    // delivered-but-not-yet-woken waiter must not look blocked (the message
    // may have arrived microseconds ago), or a linear barrier could read as
    // a phantom root<->member cycle.
    for (auto it = blocked.begin(); it != blocked.end();) {
      auto sp = it->second.state.lock();
      bool live = false;
      if (sp != nullptr) {
        std::lock_guard slk(sp->mu);
        live = !sp->completed && !sp->cancelled;
      }
      it = live ? std::next(it) : blocked.erase(it);
    }
    if (blocked.empty()) return;

    // A rank may have several outgoing edges (engine ranks run thread
    // teams); walk the digraph with a plain colored DFS.
    std::map<int, std::vector<int>> adj;
    for (const auto& [_, b] : blocked) adj[b.rank].push_back(b.waiting_on);

    std::map<int, int> color;  // 0 white, 1 on stack, 2 done
    std::vector<int> stack;
    std::vector<int> cycle;
    std::function<bool(int)> dfs = [&](int u) -> bool {
      color[u] = 1;
      stack.push_back(u);
      for (int v : adj[u]) {
        if (adj.find(v) == adj.end()) continue;  // v not blocked: no edge out
        if (color[v] == 1) {
          auto it = std::find(stack.begin(), stack.end(), v);
          cycle.assign(it, stack.end());
          return true;
        }
        if (color[v] == 0 && dfs(v)) return true;
      }
      color[u] = 2;
      stack.pop_back();
      return false;
    };
    for (const auto& [u, _] : adj) {
      if (color[u] == 0 && dfs(u)) break;
    }
    if (cycle.empty()) return;

    std::ostringstream os;
    os << "  cycle:";
    for (int r : cycle) os << " rank " << r << " ->";
    os << " rank " << cycle.front() << "\n";
    os << "  blocked unbounded receives at detection:\n";
    for (const auto& [_, b] : blocked) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now - b.since)
                          .count() +
                      opts.deadlock_after.count();
      os << "    rank " << b.rank << ": recv(source=" << b.waiting_on
         << ", tag=" << b.tag << ") blocked ~" << ms << " ms\n";
    }
    deadlock_dump = os.str();
    violate_locked(check::Rule::kDeadlock, cycle.front(),
                   cycle.size() > 1 ? cycle[1] : cycle.front(), kAnyTag,
                   deadlock_dump);
    aborted.store(true, std::memory_order_release);
  }

  /// Hard stop every checked operation once a deadlock was diagnosed —
  /// "continuing" a deadlocked program only manufactures secondary hangs.
  void throw_if_aborted() const {
    if (aborted.load(std::memory_order_acquire)) throw_deadlock();
  }
};

RecvState::~RecvState() {
  // A posted receive dying unobserved IS the request leak — whether the
  // handle was dropped mid-run or sat pending until the finalize sweep
  // cleared the mailboxes. Skip after a deadlock abort: the unwind drops
  // handles everywhere and the leaks are fallout, not independent bugs.
  if (checker != nullptr && !observed &&
      !checker->aborted.load(std::memory_order_relaxed)) {
    std::ostringstream os;
    os << "posted irecv(source="
       << (posted_source_global == kAnySource ? std::string("any")
                                              : std::to_string(posted_source_global));
    if (!tag_set.empty()) {
      os << ", tags={";
      for (std::size_t i = 0; i < tag_set.size(); ++i) {
        os << (i != 0 ? "," : "") << tag_set[i];
      }
      os << "}";
    } else {
      os << ", tag=" << (tag == kAnyTag ? std::string("any") : std::to_string(tag));
    }
    os << ") never completed, taken, or cancelled";
    checker->violate(check::Rule::kRequestLeak, posted_rank,
                     posted_source_global, tag, os.str());
  }
}

/// A persistent world's cohort (Runtime::start).
struct World {
  std::function<void(Comm&, std::span<const std::byte>)> on_op;
  std::vector<std::thread> threads;  ///< rank i + 1 runs threads[i]
  std::shared_ptr<ScheduleController> sched;  ///< non-null: cohort claimed
  std::thread::id caller;  ///< the thread whose claim stop() releases

  std::mutex op_mu;  ///< one operation at a time
  std::uint64_t op_seq = 0;  ///< operations (and the shutdown) sent so far

  std::mutex mu;  ///< guards everything below
  std::condition_variable cv;
  std::vector<std::uint64_t> done_op;  ///< per worker: last finished op
  std::vector<char> exited;            ///< per worker: loop ended
  std::exception_ptr op_error;         ///< first handler exception of the op

  /// Every worker finished operation `n` or left its loop.
  [[nodiscard]] bool settled(std::uint64_t n) const {
    for (std::size_t i = 0; i < done_op.size(); ++i) {
      if (done_op[i] < n && exited[i] == 0) return false;
    }
    return true;
  }
};

struct RuntimeState {
  int n_ranks = 0;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;   ///< per global rank
  std::atomic<std::uint64_t> next_comm_id{1};
  std::atomic<std::uint64_t> next_window_id{1};
  std::unique_ptr<AtomicTraffic[]> traffic;          ///< per global rank
  std::shared_ptr<FaultInjector> fault;              ///< null = no injection;
                                                     ///< shared so fault state
                                                     ///< can outlive a Runtime
  std::shared_ptr<Checker> checker;                  ///< null = checking off
  std::shared_ptr<ScheduleController> sched;         ///< null = free-running

  std::mutex win_mu;
  std::map<std::uint64_t, std::shared_ptr<WindowState>> windows;

  std::unique_ptr<World> world;  ///< null unless start() is live
  std::atomic<std::uint64_t> threads_started{0};
};

namespace {

bool tag_matches(const Envelope& e, Tag tag, const std::vector<Tag>& tag_set) {
  if (!tag_set.empty()) {
    return std::find(tag_set.begin(), tag_set.end(), e.tag) != tag_set.end();
  }
  // The tag wildcard spans user tags only: internal collective traffic
  // (negative tags) lives in its own context, as in real MPI, so a user's
  // iprobe/recv(kAnyTag) never observes an in-flight barrier token. Internal
  // receives always name their exact tag.
  if (tag == kAnyTag) return e.tag >= 0;
  return e.tag == tag;
}

bool matches(const Envelope& e, std::uint64_t comm_id, int source, Tag tag,
             const std::vector<Tag>& tag_set) {
  if (e.comm_id != comm_id) return false;
  if (source != kAnySource && e.source_local != source) return false;
  return tag_matches(e, tag, tag_set);
}

const std::vector<Tag> kNoTagSet;

/// Deliver an envelope to a mailbox: complete the first matching pending
/// recv, or queue the message.
///
/// The match is completed while box.mu is still held. Request::cancel takes
/// box.mu before inspecting its state, so a recv it finds incomplete is
/// guaranteed not to be mid-delivery — without this ordering, a wildcard
/// irecv could be unlinked from `pending` here, then "successfully"
/// cancelled, and the envelope would vanish with it (a latent hang for
/// whichever rank is owed that message).
void deliver(Mailbox& box, Envelope env, bool overtake = false) {
  std::shared_ptr<RecvState> match;
  {
    std::lock_guard lk(box.mu);
    for (auto it = box.pending.begin(); it != box.pending.end(); ++it) {
      if (matches(env, (*it)->comm_id, (*it)->source, (*it)->tag,
                  (*it)->tag_set)) {
        match = *it;
        box.pending.erase(it);
        break;
      }
    }
    if (!match) {
      // `overtake` models fault-injected reordering: the message jumps the
      // queue ahead of everything not yet matched, so the receiver sees it
      // out of send order. With a matching recv already pending there is
      // nothing to overtake — the message completes immediately either way.
      if (overtake) {
        box.queue.push_front(std::move(env));
      } else {
        box.queue.push_back(std::move(env));
      }
      return;
    }
    std::lock_guard mlk(match->mu);
    match->msg = Message{env.source_local, env.tag, std::move(env.payload)};
    match->completed = true;
  }
  match->cv.notify_all();
}

/// Post a recv: immediately complete against a queued message, or park it.
std::shared_ptr<RecvState> post_recv(Mailbox& box, std::uint64_t comm_id,
                                     int source, Tag tag,
                                     std::vector<Tag> tag_set) {
  auto state = std::make_shared<RecvState>();
  state->comm_id = comm_id;
  state->source = source;
  state->tag = tag;
  state->tag_set = std::move(tag_set);
  state->owner = &box;

  std::lock_guard lk(box.mu);
  for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
    if (matches(*it, comm_id, source, tag, state->tag_set)) {
      state->msg = Message{it->source_local, it->tag, std::move(it->payload)};
      state->completed = true;
      box.queue.erase(it);
      return state;
    }
  }
  box.pending.push_back(state);
  return state;
}

}  // namespace
}  // namespace detail

// ------------------------------------------------------------- Request ---

Request::Request(std::shared_ptr<detail::RecvState> state)
    : state_(std::move(state)) {}

bool Request::valid() const noexcept { return state_ != nullptr; }

namespace {

/// Completion predicate shared by the controlled wait paths. Takes the state
/// mutex — legal from inside the scheduler (lock order: controller mutex,
/// then mailbox, then recv-state).
std::function<bool()> resolved_pred(detail::RecvState* s) {
  return [s] {
    std::lock_guard lk(s->mu);
    return s->completed || s->cancelled;
  };
}

}  // namespace

bool Request::test() {
  if (!state_) return true;  // sends complete immediately
  if (state_->checker) state_->checker->throw_if_aborted();
  if (auto& sc = state_->sched; sc != nullptr && sc->controls_this_thread()) {
    // A controlled thread polling in a `while (!test())` loop would spin
    // forever: nothing progresses until it parks. Treat the poll as the
    // blocking choice point it really is — park until the request resolves.
    (void)sc->wait_point(state_->posted_rank, resolved_pred(state_.get()));
  }
  std::lock_guard lk(state_->mu);
  if (state_->completed) {
    state_->observed = true;
    return true;
  }
  return false;
}

void Request::wait() {
  if (!state_) return;
  if (auto& sc = state_->sched; sc != nullptr) {
    if (sc->wait_point(state_->posted_rank, resolved_pred(state_.get()))) {
      std::lock_guard lk(state_->mu);
      if (state_->completed) state_->observed = true;
      return;
    }
  }
  const auto chk = state_->checker;
  if (!chk) {
    std::unique_lock lk(state_->mu);
    state_->cv.wait(lk,
                    [this] { return state_->completed || state_->cancelled; });
    return;
  }

  // Checked wait: sleep in slices so a rank blocked past the deadlock
  // threshold can enter the wait-for graph, trigger cycle scans, and unwind
  // when some scan diagnoses a deadlock. The state mutex is never held while
  // calling into the checker (see Checker's lock-order note).
  chk->throw_if_aborted();
  const auto started = std::chrono::steady_clock::now();
  const auto slice = std::chrono::milliseconds(20);
  bool threshold_hit = false;
  bool registered = false;
  for (;;) {
    bool done;
    {
      std::unique_lock lk(state_->mu);
      done = state_->cv.wait_for(lk, slice, [this] {
        return state_->completed || state_->cancelled;
      });
      if (done && state_->completed) state_->observed = true;
    }
    if (done) break;
    if (chk->aborted.load(std::memory_order_acquire)) {
      if (registered) chk->unregister_blocked(state_.get());
      chk->throw_deadlock();
    }
    if (!threshold_hit &&
        std::chrono::steady_clock::now() - started >= chk->opts.deadlock_after) {
      threshold_hit = true;
      registered = chk->register_blocked(state_);
    }
    if (threshold_hit) chk->maybe_scan();
  }
  if (registered) chk->unregister_blocked(state_.get());
}

bool Request::wait_for(std::chrono::microseconds timeout) {
  if (!state_) return true;  // sends complete immediately
  if (state_->checker) state_->checker->throw_if_aborted();
  if (auto& sc = state_->sched; sc != nullptr) {
    // Under control, the real duration is virtualized away: the schedule
    // decides whether this wait completes or its timeout event fires — both
    // orders get explored regardless of wall-clock timing.
    const auto out =
        sc->timed_wait_point(state_->posted_rank, resolved_pred(state_.get()));
    if (out == ScheduleController::TimedOutcome::kTimedOut) return false;
    if (out == ScheduleController::TimedOutcome::kReady) {
      std::lock_guard lk(state_->mu);
      if (state_->completed) state_->observed = true;
      return state_->completed;
    }
  }
  std::unique_lock lk(state_->mu);
  (void)state_->cv.wait_for(lk, timeout, [this] {
    return state_->completed || state_->cancelled;
  });
  if (state_->completed && state_->checker) state_->observed = true;
  return state_->completed;
}

bool Request::cancel() {
  if (!state_) return false;
  // Remove from the owning mailbox's pending list if still parked there.
  {
    std::lock_guard box_lk(state_->owner->mu);
    std::lock_guard lk(state_->mu);
    if (state_->completed) return false;
    auto& pending = state_->owner->pending;
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->get() == state_.get()) {
        pending.erase(it);
        break;
      }
    }
    state_->cancelled = true;
    state_->observed = true;  // cancelling is proper cleanup, not a leak
  }
  state_->cv.notify_all();
  return true;
}

Message Request::take() {
  if (!state_) return {};
  std::lock_guard lk(state_->mu);
  ANNSIM_CHECK_MSG(state_->completed, "Request::take on incomplete request");
  state_->observed = true;
  return std::move(state_->msg);
}

// ---------------------------------------------------------------- Comm ---

Comm::Comm(std::shared_ptr<detail::RuntimeState> rt, std::uint64_t comm_id,
           std::vector<int> members, int my_index)
    : rt_(std::move(rt)),
      comm_id_(comm_id),
      members_(std::move(members)),
      my_index_(my_index) {}

namespace {

void check_user_tag(Tag tag) {
  ANNSIM_CHECK_MSG(tag >= 0, "user message tags must be >= 0");
}

}  // namespace

void Comm::send(int dest, Tag tag, std::span<const std::byte> payload) {
  (void)isend(dest, tag, payload);
}

Request Comm::isend(int dest, Tag tag, std::span<const std::byte> payload) {
  check_user_tag(tag);
  return isend_impl(dest, tag, payload, /*internal=*/false,
                    /*reserved_ok=*/false);
}

void Comm::send_reserved(int dest, Tag tag, std::span<const std::byte> payload) {
  (void)isend_reserved(dest, tag, payload);
}

Request Comm::isend_reserved(int dest, Tag tag,
                             std::span<const std::byte> payload) {
  check_user_tag(tag);
  return isend_impl(dest, tag, payload, /*internal=*/false,
                    /*reserved_ok=*/true);
}

Request Comm::isend_impl(int dest, Tag tag, std::span<const std::byte> payload,
                         bool internal, bool reserved_ok) {
  ANNSIM_CHECK_MSG(dest >= 0 && dest < size(), "isend: bad destination " << dest);
  const int sender = members_[std::size_t(my_index_)];
  if (auto* chk = rt_->checker.get(); chk != nullptr && !internal) {
    chk->throw_if_aborted();
    if (!reserved_ok && chk->is_reserved(tag)) {
      std::ostringstream os;
      os << "plain send on reserved control-plane tag " << tag << " to rank "
         << members_[std::size_t(dest)] << " (use send_reserved/isend_reserved)";
      chk->violate(check::Rule::kReservedTagSend, sender,
                   members_[std::size_t(dest)], tag, os.str());
    }
  }

  detail::Envelope env;
  env.comm_id = comm_id_;
  env.source_local = my_index_;
  env.source_global = sender;
  env.tag = tag;
  env.payload.assign(payload.begin(), payload.end());

  auto& stats = rt_->traffic[std::size_t(sender)];
  if (tag >= 0 || tag == detail::kTagControl) {
    stats.p2p_messages.fetch_add(1, std::memory_order_relaxed);
    stats.p2p_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  } else {
    stats.collective_ops.fetch_add(1, std::memory_order_relaxed);
    stats.collective_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  }

  // Fault injection gates user messages only: internal collective traffic
  // (tag < 0) is never touched. Control-plane tags
  // (FaultPlan::reliable_tags) skip the drop/delay rolls and the op budget
  // but are still silenced once the sender is dead — fail-silent means
  // silent on every user tag, or heartbeat-based health monitoring could
  // never observe a death. See fault.hpp for the failure model.
  auto verdict = Delivery::kDeliver;
  if (tag >= 0 && rt_->fault != nullptr) {
    if (rt_->fault->is_reliable(tag)) {
      verdict = rt_->fault->allow_reliable_op(sender) ? Delivery::kDeliver
                                                      : Delivery::kDrop;
    } else {
      verdict = rt_->fault->classify_op(sender);
    }
    if (verdict == Delivery::kDrop) {
      return Request{};  // dropped: the envelope never reaches the mailbox
    }
  }

  auto& box = *rt_->mailboxes[std::size_t(members_[std::size_t(dest)])];
  if (auto& sc = rt_->sched; sc != nullptr && sc->controls_this_thread()) {
    // Controlled run: the envelope enters its (sender, dest, comm) channel
    // and a scheduler decision moves it into the mailbox later. The fault
    // verdict above was already taken — deterministically, since a rank's op
    // counter advances in its own program order — so drops never reach here
    // and duplicates queue twice.
    ChoiceEvent ev;
    ev.kind = ChoiceKind::kDeliver;
    ev.source = sender;
    ev.dest = members_[std::size_t(dest)];
    ev.tag = tag;
    ev.comm_id = comm_id_;
    if (verdict == Delivery::kDuplicate) {
      (void)sc->submit(
          ev,
          [bx = &box, env] {
            auto copy = env;
            detail::deliver(*bx, std::move(copy));
          },
          rt_.get());
    }
    const bool overtake = verdict == Delivery::kReorder;
    (void)sc->submit(
        ev,
        [bx = &box, env = std::move(env), overtake]() mutable {
          detail::deliver(*bx, std::move(env), overtake);
        },
        rt_.get());
    return Request{};
  }
  if (verdict == Delivery::kDuplicate) {
    detail::deliver(box, env);  // retransmission: same bytes arrive twice
  }
  detail::deliver(box, std::move(env),
                  /*overtake=*/verdict == Delivery::kReorder);
  if (auto& sc = rt_->sched; sc != nullptr) {
    // An untracked thread (an engine search team member) delivered directly
    // while a controlled run may be quiescent: let the scheduler re-scan its
    // parked predicates so a wait this delivery resolved actually wakes.
    sc->poke();
  }
  return Request{};  // in-process: the send buffer is copied, so complete
}

Message Comm::recv(int source, Tag tag) {
  Request r = irecv(source, tag);
  r.wait();
  return r.take();
}

std::optional<Message> Comm::recv_for(int source, Tag tag,
                                      std::chrono::microseconds timeout) {
  Request r = irecv(source, tag);
  if (r.wait_for(timeout)) return r.take();
  if (r.cancel()) return std::nullopt;
  return r.take();  // completed in the cancel race window: take it, never lose it
}

Request Comm::irecv(int source, Tag tag) {
  ANNSIM_CHECK_MSG(source == kAnySource || (source >= 0 && source < size()),
                   "irecv: bad source " << source);
  auto state = detail::post_recv(
      *rt_->mailboxes[std::size_t(members_[std::size_t(my_index_)])], comm_id_,
      source, tag, {});
  state->sched = rt_->sched;
  state->posted_rank = members_[std::size_t(my_index_)];
  state->posted_source_global =
      source == kAnySource ? kAnySource : members_[std::size_t(source)];
  if (auto& chk = rt_->checker; chk != nullptr) {
    state->checker = chk;
    if (tag == kAnyTag && !chk->reserved.empty()) {
      std::ostringstream os;
      os << "kAnyTag wildcard receive posted while control-plane tags are "
            "reserved (could swallow a reserved-tag message; use irecv_tags)";
      chk->violate(check::Rule::kWildcardRecv, state->posted_rank,
                   state->posted_source_global, kAnyTag, os.str());
    }
  }
  return Request(std::move(state));
}

Request Comm::irecv_tags(int source, std::vector<Tag> tags) {
  ANNSIM_CHECK_MSG(source == kAnySource || (source >= 0 && source < size()),
                   "irecv_tags: bad source " << source);
  ANNSIM_CHECK_MSG(!tags.empty(), "irecv_tags: empty tag set");
  for (const Tag t : tags) {
    ANNSIM_CHECK_MSG(t >= 0, "irecv_tags: tags must be >= 0, got " << t);
  }
  auto state = detail::post_recv(
      *rt_->mailboxes[std::size_t(members_[std::size_t(my_index_)])], comm_id_,
      source, kAnyTag, std::move(tags));
  state->sched = rt_->sched;
  state->posted_rank = members_[std::size_t(my_index_)];
  state->posted_source_global =
      source == kAnySource ? kAnySource : members_[std::size_t(source)];
  if (auto& chk = rt_->checker; chk != nullptr) {
    state->checker = chk;
  }
  return Request(std::move(state));
}

bool Comm::iprobe(int source, Tag tag) {
  auto& box = *rt_->mailboxes[std::size_t(members_[std::size_t(my_index_)])];
  std::lock_guard lk(box.mu);
  for (const auto& env : box.queue) {
    if (detail::matches(env, comm_id_, source, tag, detail::kNoTagSet)) {
      return true;
    }
  }
  return false;
}

/// Internal blocking receive for collectives: exact internal tag, no checker
/// bookkeeping needed beyond what recv() already does — but it must NOT be
/// routed through the user-facing recv() tag rules, so it posts directly.
Message Comm::recv_internal_(int source, Tag tag) {
  auto state = detail::post_recv(
      *rt_->mailboxes[std::size_t(members_[std::size_t(my_index_)])], comm_id_,
      source, tag, {});
  state->sched = rt_->sched;
  state->posted_rank = members_[std::size_t(my_index_)];
  state->posted_source_global = members_[std::size_t(source)];
  if (auto& chk = rt_->checker; chk != nullptr) {
    state->checker = chk;
  }
  Request r{std::move(state)};
  r.wait();
  return r.take();
}

void Comm::barrier() {
  // Linear barrier: everyone reports to local root, root releases everyone.
  const std::byte dummy{0};
  const std::span<const std::byte> empty(&dummy, 0);
  if (my_index_ == 0) {
    for (int i = 1; i < size(); ++i) {
      (void)recv_internal_(i, detail::kTagBarrier);
    }
    for (int i = 1; i < size(); ++i) {
      (void)isend_impl(i, detail::kTagBarrierRelease, empty, /*internal=*/true,
                       /*reserved_ok=*/true);
    }
  } else {
    (void)isend_impl(0, detail::kTagBarrier, empty, /*internal=*/true,
                     /*reserved_ok=*/true);
    (void)recv_internal_(0, detail::kTagBarrierRelease);
  }
}

std::vector<std::byte> Comm::bcast(std::span<const std::byte> buf, int root) {
  ANNSIM_CHECK(root >= 0 && root < size());
  if (my_index_ == root) {
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      (void)isend_impl(i, detail::kTagBcast, buf, /*internal=*/true,
                       /*reserved_ok=*/true);
    }
    return {buf.begin(), buf.end()};
  }
  return recv_internal_(root, detail::kTagBcast).payload;
}

std::vector<std::vector<std::byte>> Comm::gather(std::span<const std::byte> buf,
                                                 int root) {
  ANNSIM_CHECK(root >= 0 && root < size());
  if (my_index_ == root) {
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
    out[std::size_t(root)].assign(buf.begin(), buf.end());
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      out[std::size_t(i)] = recv_internal_(i, detail::kTagGather).payload;
    }
    return out;
  }
  (void)isend_impl(root, detail::kTagGather, buf, /*internal=*/true,
                   /*reserved_ok=*/true);
  return {};
}

std::vector<std::byte> Comm::scatter(
    const std::vector<std::vector<std::byte>>& bufs, int root) {
  ANNSIM_CHECK(root >= 0 && root < size());
  if (my_index_ == root) {
    ANNSIM_CHECK_MSG(bufs.size() == std::size_t(size()),
                     "scatter: need one buffer per rank");
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      (void)isend_impl(i, detail::kTagScatter, bufs[std::size_t(i)],
                       /*internal=*/true, /*reserved_ok=*/true);
    }
    return bufs[std::size_t(root)];
  }
  return recv_internal_(root, detail::kTagScatter).payload;
}

std::vector<std::vector<std::byte>> Comm::alltoallv(
    const std::vector<std::vector<std::byte>>& send_bufs) {
  ANNSIM_CHECK_MSG(send_bufs.size() == std::size_t(size()),
                   "alltoallv: need one buffer per rank");
  // All sends complete immediately (copied), so no deadlock risk.
  for (int i = 0; i < size(); ++i) {
    (void)isend_impl(i, detail::kTagAlltoallv, send_bufs[std::size_t(i)],
                     /*internal=*/true, /*reserved_ok=*/true);
  }
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) {
    out[std::size_t(i)] = recv_internal_(i, detail::kTagAlltoallv).payload;
  }
  return out;
}

Comm Comm::split(int color) const {
  // Gather all colors at root 0, which assigns new communicator ids and
  // sends every member its new (comm_id, member list, index).
  Comm& self = const_cast<Comm&>(*this);
  auto colors = self.gather_values(color, 0);

  BinaryWriter my_info;
  if (my_index_ == 0) {
    std::map<int, std::vector<int>> groups;  // color -> comm indices (sorted)
    for (int i = 0; i < size(); ++i) groups[colors[std::size_t(i)]].push_back(i);

    std::map<int, std::uint64_t> comm_ids;
    for (const auto& [c, g] : groups) {
      comm_ids[c] = rt_->next_comm_id.fetch_add(1, std::memory_order_relaxed);
    }

    std::vector<std::vector<std::byte>> payloads(static_cast<std::size_t>(size()));
    for (const auto& [c, g] : groups) {
      for (std::size_t idx = 0; idx < g.size(); ++idx) {
        BinaryWriter w;
        w.write(comm_ids[c]);
        w.write(std::uint32_t(idx));
        std::vector<int> globals;
        globals.reserve(g.size());
        for (int member : g) globals.push_back(members_[std::size_t(member)]);
        w.write_vector(globals);
        payloads[std::size_t(g[idx])] = w.take();
      }
    }
    auto mine = self.scatter(payloads, 0);
    BinaryReader r(mine);
    const auto comm_id = r.read<std::uint64_t>();
    const auto idx = r.read<std::uint32_t>();
    auto globals = r.read_vector<int>();
    return Comm(rt_, comm_id, std::move(globals), int(idx));
  }

  auto mine = self.scatter({}, 0);
  BinaryReader r(mine);
  const auto comm_id = r.read<std::uint64_t>();
  const auto idx = r.read<std::uint32_t>();
  auto globals = r.read_vector<int>();
  return Comm(rt_, comm_id, std::move(globals), int(idx));
}

Window Comm::create_window(std::size_t local_bytes) {
  auto sizes = gather_values(std::uint64_t(local_bytes), 0);
  std::uint64_t win_id = 0;
  if (my_index_ == 0) {
    auto ws = std::make_shared<detail::WindowState>();
    ws->buffers.resize(std::size_t(size()));
    ws->target_mu.resize(std::size_t(size()));
    ws->locked.assign(std::size_t(size()),
                      std::vector<char>(std::size_t(size()), 0));
    ws->rt = rt_.get();
    ws->members = members_;
    for (int i = 0; i < size(); ++i) {
      ws->buffers[std::size_t(i)].resize(sizes[std::size_t(i)]);
      ws->target_mu[std::size_t(i)] = std::make_unique<std::mutex>();
    }
    win_id = rt_->next_window_id.fetch_add(1, std::memory_order_relaxed);
    ws->id = win_id;
    std::lock_guard lk(rt_->win_mu);
    rt_->windows[win_id] = std::move(ws);
  }
  win_id = bcast_value(win_id, 0);

  std::shared_ptr<detail::WindowState> ws;
  {
    std::lock_guard lk(rt_->win_mu);
    ws = rt_->windows.at(win_id);
  }
  return Window(std::move(ws), my_index_);
}

TrafficStats Comm::traffic() const {
  return rt_->traffic[std::size_t(members_[std::size_t(my_index_)])].snapshot();
}

// -------------------------------------------------------------- Window ---

Window::Window(std::shared_ptr<detail::WindowState> state, int my_rank)
    : state_(std::move(state)), my_rank_(my_rank) {}

namespace {

detail::Checker* window_checker(const detail::WindowState& ws) {
  return ws.rt->checker.get();
}

int window_global(const detail::WindowState& ws, int comm_rank) {
  return ws.members[std::size_t(comm_rank)];
}

}  // namespace

void Window::lock_shared(int target) {
  ANNSIM_CHECK(state_ != nullptr);
  auto& flag = state_->locked[std::size_t(my_rank_)][std::size_t(target)];
  if (flag != 0) {
    if (auto* chk = window_checker(*state_)) {
      chk->violate(check::Rule::kRmaLockMisuse, window_global(*state_, my_rank_),
                   window_global(*state_, target), kAnyTag,
                   "nested lock_shared at an already-locked target");
      return;
    }
    ANNSIM_CHECK_MSG(false, "Window: nested lock at target " << target);
  }
  flag = 1;
}

void Window::unlock(int target) {
  ANNSIM_CHECK(state_ != nullptr);
  auto& flag = state_->locked[std::size_t(my_rank_)][std::size_t(target)];
  if (flag != 1) {
    if (auto* chk = window_checker(*state_)) {
      chk->violate(check::Rule::kRmaLockMisuse, window_global(*state_, my_rank_),
                   window_global(*state_, target), kAnyTag,
                   "unlock without a matching lock_shared");
      return;
    }
    ANNSIM_CHECK_MSG(false, "Window: unlock without lock at target " << target);
  }
  flag = 0;
}

namespace {

/// Epoch discipline: hard failure without the checker (as before); with the
/// checker the violation is recorded and the op proceeds — single-process
/// memory makes that safe, and report-and-continue lets one run surface
/// every offending call site instead of dying at the first.
void check_epoch(const detail::WindowState& ws, int origin, int target,
                 const char* op) {
  if (ws.locked[std::size_t(origin)][std::size_t(target)] == 1) return;
  if (auto* chk = window_checker(ws)) {
    std::ostringstream os;
    os << op << " outside a lock_shared/unlock access epoch";
    chk->violate(check::Rule::kRmaOutsideEpoch, window_global(ws, origin),
                 window_global(ws, target), kAnyTag, os.str());
    return;
  }
  ANNSIM_CHECK_MSG(false,
                   "Window: RMA op outside an access epoch (call lock_shared)");
}

void account_rma(detail::WindowState& ws, int origin, std::size_t bytes) {
  auto& stats = ws.rt->traffic[std::size_t(ws.members[std::size_t(origin)])];
  stats.rma_ops.fetch_add(1, std::memory_order_relaxed);
  stats.rma_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// RMA mutations from a dead/faulted origin vanish silently, like its sends.
bool rma_op_allowed(detail::WindowState& ws, int origin) {
  return ws.rt->fault == nullptr ||
         ws.rt->fault->allow_op(ws.members[std::size_t(origin)]);
}

/// Controlled-scheduling choice point: a tracked thread parks here until the
/// scheduler grants its turn at `target`, which serializes concurrent RMA
/// traffic into an explorable order. Free-running threads pass through.
void rma_choice_point(detail::WindowState& ws, int origin, int target) {
  if (auto& sc = ws.rt->sched; sc != nullptr) {
    (void)sc->rma_point(ws.members[std::size_t(origin)],
                        ws.members[std::size_t(target)], ws.id);
  }
}

}  // namespace

void Window::put(int target, std::size_t offset, std::span<const std::byte> data) {
  auto& ws = *state_;
  check_epoch(ws, my_rank_, target, "put");
  auto& buf = ws.buffers[std::size_t(target)];
  ANNSIM_CHECK_MSG(offset + data.size() <= buf.size(), "Window::put out of range");
  account_rma(ws, my_rank_, data.size());
  if (!rma_op_allowed(ws, my_rank_)) return;
  rma_choice_point(ws, my_rank_, target);
  std::lock_guard lk(*ws.target_mu[std::size_t(target)]);
  std::copy(data.begin(), data.end(), buf.begin() + std::ptrdiff_t(offset));
}

std::vector<std::byte> Window::get(int target, std::size_t offset,
                                   std::size_t len) {
  auto& ws = *state_;
  check_epoch(ws, my_rank_, target, "get");
  auto& buf = ws.buffers[std::size_t(target)];
  ANNSIM_CHECK_MSG(offset + len <= buf.size(), "Window::get out of range");
  rma_choice_point(ws, my_rank_, target);
  std::lock_guard lk(*ws.target_mu[std::size_t(target)]);
  account_rma(ws, my_rank_, len);
  return {buf.begin() + std::ptrdiff_t(offset),
          buf.begin() + std::ptrdiff_t(offset + len)};
}

void Window::get_accumulate(int target, std::size_t offset,
                            std::span<const std::byte> origin_data,
                            const MergeOp& op, std::vector<std::byte>* prev_out) {
  auto& ws = *state_;
  check_epoch(ws, my_rank_, target, "get_accumulate");
  auto& buf = ws.buffers[std::size_t(target)];
  ANNSIM_CHECK_MSG(offset + origin_data.size() <= buf.size(),
                   "Window::get_accumulate out of range");
  account_rma(ws, my_rank_, origin_data.size());
  if (!rma_op_allowed(ws, my_rank_)) return;
  rma_choice_point(ws, my_rank_, target);
  std::lock_guard lk(*ws.target_mu[std::size_t(target)]);
  const std::span<std::byte> region(buf.data() + offset, origin_data.size());
  if (prev_out != nullptr) prev_out->assign(region.begin(), region.end());
  op(region, origin_data);
}

std::span<std::byte> Window::local_data() {
  ANNSIM_CHECK(state_ != nullptr);
  return state_->buffers[std::size_t(my_rank_)];
}

std::size_t Window::local_size() const {
  ANNSIM_CHECK(state_ != nullptr);
  return state_->buffers[std::size_t(my_rank_)].size();
}

void Window::grow_local(std::size_t bytes) {
  ANNSIM_CHECK(state_ != nullptr);
  auto& ws = *state_;
  for (const auto& origin : ws.locked) {
    ANNSIM_CHECK_MSG(origin[std::size_t(my_rank_)] == 0,
                     "Window::grow_local during an open access epoch");
  }
  std::lock_guard lk(*ws.target_mu[std::size_t(my_rank_)]);
  auto& buf = ws.buffers[std::size_t(my_rank_)];
  if (buf.size() < bytes) buf.resize(bytes);
}

// ------------------------------------------------------------- Runtime ---

Runtime::Runtime(int n_ranks) : state_(std::make_shared<detail::RuntimeState>()) {
  ANNSIM_CHECK_MSG(n_ranks >= 1, "Runtime needs at least one rank");
  state_->n_ranks = n_ranks;
  state_->mailboxes.reserve(std::size_t(n_ranks));
  for (int i = 0; i < n_ranks; ++i) {
    state_->mailboxes.push_back(std::make_unique<detail::Mailbox>());
  }
  state_->traffic = std::make_unique<detail::AtomicTraffic[]>(std::size_t(n_ranks));
  if (check::env_check_enabled()) {
    configure_check({});  // env folds the enable in; default options otherwise
  }
}

Runtime::Runtime(int n_ranks, const FaultPlan& plan) : Runtime(n_ranks) {
  if (plan.enabled()) {
    state_->fault = std::make_shared<FaultInjector>(plan, n_ranks);
  }
}

Runtime::Runtime(int n_ranks, std::shared_ptr<FaultInjector> injector)
    : Runtime(n_ranks) {
  set_fault_injector(std::move(injector));
}

void Runtime::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  if (injector != nullptr) {
    ANNSIM_CHECK_MSG(injector->n_ranks() == state_->n_ranks,
                     "shared FaultInjector covers "
                         << injector->n_ranks() << " ranks but the runtime has "
                         << state_->n_ranks);
  }
  state_->fault = std::move(injector);
}

Runtime::~Runtime() {
  try {
    stop();
  } catch (...) {
    // A destructor cannot report; the threads are joined either way.
  }
}

int Runtime::size() const noexcept { return state_->n_ranks; }

void Runtime::configure_check(const check::CheckOptions& opts) {
  check::CheckOptions o = opts;
  if (check::env_check_enabled()) o.enabled = true;
  if (const int ef = check::env_check_fatal(); ef >= 0) o.fatal = (ef == 1);
  if (!o.enabled) {
    state_->checker.reset();
    return;
  }
  state_->checker = std::make_shared<detail::Checker>(std::move(o));
}

bool Runtime::check_enabled() const noexcept {
  return state_->checker != nullptr;
}

check::CheckReport Runtime::check_report() const {
  if (state_->checker == nullptr) return {};
  std::lock_guard lk(state_->checker->mu);
  return state_->checker->report;
}

namespace detail {
namespace {

/// Post-join finalize sweep: request leaks (via RecvState dtors when the
/// pending lists drop), unmatched sends, open RMA epochs. After run() it
/// covers the whole runtime and only runs with the checker installed;
/// without it, run() leaves mailboxes and windows exactly as before
/// (messages may legally outlive a run for a caller that never finalizes).
/// After one operation of a persistent world, `in_scope` limits it to the
/// operation's contexts, and the operation's residue is purged with or
/// without the checker, since no later operation can match it. `end` marks
/// the last sweep of the runtime: its windows die with it.
void sweep(RuntimeState& st, Checker* chk,
           const std::function<bool(std::uint64_t)>& in_scope, bool end) {
  const bool aborted =
      chk != nullptr && chk->aborted.load(std::memory_order_acquire);
  auto scoped = [&](std::uint64_t comm_id) {
    return !in_scope || in_scope(comm_id);
  };

  // Dropping the pending recvs here fires the request-leak detection in
  // ~RecvState (which takes chk.mu) — destroy outside the mailbox locks.
  std::vector<std::shared_ptr<RecvState>> doomed;
  for (auto& box : st.mailboxes) {
    std::lock_guard lk(box->mu);
    for (auto it = box->pending.begin(); it != box->pending.end();) {
      if (!scoped((*it)->comm_id)) {
        ++it;
        continue;
      }
      doomed.push_back(std::move(*it));
      it = box->pending.erase(it);
    }
  }
  doomed.clear();

  auto purge = [&](std::list<Envelope>& queue, int dest) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (!scoped(it->comm_id)) {
        ++it;
        continue;
      }
      if (chk != nullptr) {
        const Envelope& env = *it;
        if (env.tag >= 0 && chk->is_best_effort(env.tag)) {
          ++chk->report.best_effort_residue;
        } else {
          ++chk->report.unmatched_histogram[{env.tag, dest}];
          std::ostringstream os;
          os << "message from rank " << env.source_global << " to rank "
             << dest << " on tag " << env.tag << " (" << env.payload.size()
             << " bytes) never received";
          chk->violate_locked(check::Rule::kUnmatchedSend, env.source_global,
                              dest, env.tag, os.str());
        }
      }
      it = queue.erase(it);
    }
  };

  if (chk == nullptr) {
    if (!in_scope) return;
    for (int dest = 0; dest < st.n_ranks; ++dest) {
      auto& box = *st.mailboxes[std::size_t(dest)];
      std::lock_guard blk(box.mu);
      purge(box.queue, dest);
    }
    if (end) {
      std::lock_guard wlk(st.win_mu);
      st.windows.clear();
    }
    return;
  }

  std::lock_guard lk(chk->mu);
  chk->report.runs += 1;
  if (aborted) return;
  // Unmatched sends: anything still queued was sent but never received.
  for (int dest = 0; dest < st.n_ranks; ++dest) {
    auto& box = *st.mailboxes[std::size_t(dest)];
    std::lock_guard blk(box.mu);
    purge(box.queue, dest);
  }
  // Open access epochs. At the end the windows die, so an epoch still open
  // is "window destroyed while locked"; between operations it is an epoch
  // the operation never closed.
  std::lock_guard wlk(st.win_mu);
  for (const auto& [id, ws] : st.windows) {
    for (std::size_t o = 0; o < ws->locked.size(); ++o) {
      for (std::size_t t = 0; t < ws->locked[o].size(); ++t) {
        if (ws->locked[o][t] == 0) continue;
        std::ostringstream os;
        os << "window " << id << ": access epoch at target " << ws->members[t]
           << " still open at finalize";
        chk->violate_locked(check::Rule::kRmaEpochLeak, ws->members[o],
                            ws->members[t], kAnyTag, os.str());
      }
    }
  }
  if (end) st.windows.clear();
}

/// Rethrow `first_error`, else throw the checker's report when it is fatal
/// and found something since `violations_before`.
void report_outcome(RuntimeState& st, const std::exception_ptr& first_error,
                    std::uint64_t violations_before) {
  if (first_error) std::rethrow_exception(first_error);
  if (auto& chk = st.checker; chk != nullptr) {
    check::CheckReport report;
    {
      std::lock_guard lk(chk->mu);
      report = chk->report;
    }
    if (chk->opts.fatal && report.total_violations() > violations_before) {
      throw Error(check::to_string(report));
    }
  }
}

}  // namespace
}  // namespace detail

void Runtime::run(const std::function<void(Comm&)>& rank_main) {
  ANNSIM_CHECK_MSG(state_->world == nullptr,
                   "Runtime::run while a persistent world is live");
  const int n = state_->n_ranks;
  std::vector<int> world(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) world[std::size_t(i)] = i;

  const std::uint64_t violations_before =
      state_->checker ? check_report().total_violations() : 0;

  std::exception_ptr first_error;
  std::mutex error_mu;

  // Claim the whole rank cohort with the schedule controller *before* any
  // thread spawns: the scheduler must never fire on a partial view of the
  // ranks (a lone early thread parking would look like full quiescence).
  const auto sched = state_->sched;
  const bool controlled = sched != nullptr && sched->begin_run(n);

  std::vector<std::thread> threads;
  threads.reserve(std::size_t(n));
  state_->threads_started.fetch_add(std::uint64_t(n), std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      if (controlled) sched->attach_thread();
      Comm comm(state_, /*comm_id=*/0, world, i);
      try {
        rank_main(comm);
      } catch (...) {
        std::lock_guard lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      if (controlled) sched->finish_thread();
    });
  }
  for (auto& t : threads) t.join();
  // Another cohort (a persistent world) may keep the controller tracking:
  // deliver what is still queued for this runtime's mailboxes now.
  if (controlled) sched->flush_owner(state_.get());

  if (auto* chk = state_->checker.get(); chk != nullptr) {
    detail::sweep(*state_, chk, {}, /*end=*/true);
  }
  detail::report_outcome(*state_, first_error, violations_before);
}

// --------------------------------------------------------- persistent ---

namespace {

std::vector<int> world_members(int n) {
  std::vector<int> members(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) members[std::size_t(i)] = i;
  return members;
}

/// Block until `w.settled(n)`. A controlled caller parks at a choice point
/// so the scheduler can run the workers; once the controller has failed,
/// every choice point throws and the workers leave their loops, so the
/// caller falls back to a plain wait. Returns the controller's error, if any.
std::exception_ptr await_settled(detail::World& w, std::uint64_t n) {
  std::exception_ptr err;
  if (w.sched != nullptr) {
    try {
      if (w.sched->wait_point(0, [&w, n] {
            std::lock_guard lk(w.mu);
            return w.settled(n);
          })) {
        return err;
      }
    } catch (...) {
      err = std::current_exception();
    }
  }
  std::unique_lock lk(w.mu);
  w.cv.wait(lk, [&w, n] { return w.settled(n); });
  return err;
}

}  // namespace

void Runtime::start(OpHandler on_op) {
  ANNSIM_CHECK_MSG(state_->world == nullptr, "Runtime::start: already started");
  const int n = state_->n_ranks;
  auto w = std::make_unique<detail::World>();
  w->on_op = std::move(on_op);
  w->done_op.assign(std::size_t(n - 1), 0);
  w->exited.assign(std::size_t(n - 1), 0);
  // Claim the cohort before any thread spawns (see run()): the workers, and
  // the calling thread as rank 0 of every operation until stop().
  if (state_->sched != nullptr && state_->sched->claim_caller()) {
    w->sched = state_->sched;
    w->caller = std::this_thread::get_id();
    (void)w->sched->begin_run(n - 1);
  }
  detail::World* wp = w.get();
  state_->world = std::move(w);
  state_->threads_started.fetch_add(std::uint64_t(n - 1),
                                    std::memory_order_relaxed);
  wp->threads.reserve(std::size_t(n - 1));
  for (int rank = 1; rank < n; ++rank) {
    wp->threads.emplace_back([this, wp, rank, n] {
      if (wp->sched != nullptr) wp->sched->attach_thread();
      const std::size_t me = std::size_t(rank) - 1;
      const std::vector<int> members = world_members(n);
      for (std::uint64_t op = 1;; ++op) {
        Comm comm(state_, detail::kContextBase + op, members, rank);
        Message ctl;
        {
          auto st = detail::post_recv(*state_->mailboxes[std::size_t(rank)],
                                      comm.comm_id_, 0, detail::kTagControl,
                                      {});
          st->sched = state_->sched;
          st->posted_rank = rank;
          st->posted_source_global = 0;
          st->checker = state_->checker;
          Request req(std::move(st));
          try {
            req.wait();
            ctl = req.take();
          } catch (...) {
            // The controller failed or the checker diagnosed a deadlock:
            // this cohort can run nothing more.
            (void)req.cancel();
            break;
          }
        }
        if (ctl.payload.empty() || ctl.payload[0] == detail::kControlShutdown) {
          break;
        }
        try {
          wp->on_op(comm, std::span<const std::byte>(ctl.payload).subspan(1));
        } catch (...) {
          std::lock_guard lk(wp->mu);
          if (!wp->op_error) wp->op_error = std::current_exception();
        }
        {
          std::lock_guard lk(wp->mu);
          wp->done_op[me] = op;
        }
        wp->cv.notify_all();
      }
      {
        std::lock_guard lk(wp->mu);
        wp->exited[me] = 1;
      }
      wp->cv.notify_all();
      if (wp->sched != nullptr) wp->sched->finish_thread();
    });
  }
}

TrafficStats Runtime::operate(std::span<const std::byte> op,
                              const std::function<void(Comm&)>& master) {
  ANNSIM_CHECK_MSG(state_->world != nullptr, "Runtime::operate: not started");
  detail::World& w = *state_->world;
  std::lock_guard op_lock(w.op_mu);
  const TrafficStats before = total_traffic();
  const std::uint64_t violations_before =
      state_->checker ? check_report().total_violations() : 0;
  const std::uint64_t first_split_id =
      state_->next_comm_id.load(std::memory_order_relaxed);
  const std::uint64_t n = ++w.op_seq;
  {
    std::lock_guard lk(w.mu);
    w.op_error = nullptr;
  }

  Comm comm(state_, detail::kContextBase + n, world_members(state_->n_ranks), 0);
  std::vector<std::byte> ctl;
  ctl.reserve(op.size() + 1);
  ctl.push_back(detail::kControlOp);
  ctl.insert(ctl.end(), op.begin(), op.end());
  for (int i = 1; i < state_->n_ranks; ++i) {
    (void)comm.isend_impl(i, detail::kTagControl, ctl, /*internal=*/true,
                          /*reserved_ok=*/true);
  }

  std::exception_ptr first_error;
  try {
    master(comm);
  } catch (...) {
    first_error = std::current_exception();
  }
  std::exception_ptr sched_error = await_settled(w, n);
  {
    std::lock_guard lk(w.mu);
    if (!first_error) first_error = w.op_error;
  }
  if (!first_error) first_error = sched_error;

  // The operation's contexts: its own, and any communicator it split off.
  const std::uint64_t ctx = comm.comm_id_;
  detail::sweep(*state_, state_->checker.get(),
                [ctx, first_split_id](std::uint64_t id) {
                  return id == ctx ||
                         (id >= first_split_id && id < detail::kContextBase);
                },
                /*end=*/false);
  detail::report_outcome(*state_, first_error, violations_before);
  TrafficStats delta = total_traffic();
  delta -= before;
  return delta;
}

void Runtime::stop() {
  if (state_->world == nullptr) return;
  detail::World& w = *state_->world;
  {
    std::lock_guard op_lock(w.op_mu);
    const std::uint64_t n = ++w.op_seq;
    Comm comm(state_, detail::kContextBase + n,
              world_members(state_->n_ranks), 0);
    const std::byte shutdown[1] = {detail::kControlShutdown};
    for (int i = 1; i < state_->n_ranks; ++i) {
      bool gone;
      {
        std::lock_guard lk(w.mu);
        gone = w.exited[std::size_t(i) - 1] != 0;
      }
      if (!gone) {
        (void)comm.isend_impl(i, detail::kTagControl, shutdown,
                              /*internal=*/true, /*reserved_ok=*/true);
      }
    }
    (void)await_settled(w, ~std::uint64_t{0});
  }
  for (auto& t : w.threads) t.join();
  if (w.sched != nullptr) {
    w.sched->flush_owner(state_.get());
    if (w.caller == std::this_thread::get_id()) w.sched->release_caller();
  }
  state_->world.reset();
  detail::sweep(*state_, state_->checker.get(), {}, /*end=*/true);
}

bool Runtime::started() const noexcept { return state_->world != nullptr; }

std::uint64_t Runtime::threads_started() const noexcept {
  return state_->threads_started.load(std::memory_order_relaxed);
}

TrafficStats Runtime::total_traffic() const {
  TrafficStats total;
  for (int i = 0; i < state_->n_ranks; ++i) {
    total += state_->traffic[std::size_t(i)].snapshot();
  }
  return total;
}

std::vector<TrafficStats> Runtime::per_rank_traffic() const {
  std::vector<TrafficStats> out;
  out.reserve(std::size_t(state_->n_ranks));
  for (int i = 0; i < state_->n_ranks; ++i) {
    out.push_back(state_->traffic[std::size_t(i)].snapshot());
  }
  return out;
}

void Runtime::set_schedule(std::shared_ptr<ScheduleController> schedule) {
  state_->sched = std::move(schedule);
}

std::shared_ptr<ScheduleController> Runtime::schedule() const noexcept {
  return state_->sched;
}

FaultInjector* Runtime::fault_injector() noexcept { return state_->fault.get(); }

std::vector<int> Runtime::failed_ranks() const {
  return state_->fault ? state_->fault->dead_ranks() : std::vector<int>{};
}

}  // namespace annsim::mpi
