#include "annsim/mpi/schedule.hpp"

#include <algorithm>
#include <condition_variable>
#include <sstream>

#include "annsim/common/error.hpp"

namespace annsim::mpi {

namespace {

/// Which controller (if any) tracks the current thread. A thread-local
/// pointer rather than a flag so helper threads a rank spawns — which inherit
/// nothing — are naturally untracked, and a stale registration can never leak
/// across controllers.
thread_local ScheduleController* t_controller = nullptr;
/// Nesting depth of claim_caller() on the current thread.
thread_local int t_caller_claims = 0;

const char* kind_name(ChoiceKind k) {
  switch (k) {
    case ChoiceKind::kDeliver: return "deliver";
    case ChoiceKind::kTimeout: return "timeout";
    case ChoiceKind::kRma: return "rma";
  }
  return "?";
}

}  // namespace

std::string to_string(const ChoiceEvent& ev) {
  std::ostringstream os;
  os << kind_name(ev.kind) << " " << ev.source << "->" << ev.dest;
  if (ev.kind == ChoiceKind::kDeliver) os << " tag=" << ev.tag;
  os << " comm=" << ev.comm_id << " seq=" << ev.seq;
  return os.str();
}

/// A thread blocked at a choice point. Stack-allocated in the parking call;
/// linked into parked_ only while waiting, so no ownership questions arise.
struct ScheduleController::Parked {
  int rank = -1;
  std::uint64_t seq = 0;  ///< per-rank park counter (wake-order tiebreak)
  std::function<bool()> ready;  ///< null => only an explicit grant unparks
  bool timed = false;
  bool rma = false;
  ChoiceEvent ev{};  ///< the timeout/RMA event this park contributes
  bool woken = false;
  bool timed_out = false;
  bool granted = false;
  std::condition_variable cv;
};

struct ScheduleController::ChannelEntry {
  ChoiceEvent ev;
  std::function<void()> commit;
  const void* owner = nullptr;
};

ScheduleController::ScheduleController() = default;

ScheduleController::~ScheduleController() {
  std::lock_guard lk(mu_);
  ANNSIM_CHECK_MSG(tracked_ == 0,
                   "ScheduleController destroyed with tracked threads");
  // Undelivered channels are dropped with the controller: their commit
  // closures reference mailboxes that may already be gone.
}

void ScheduleController::arm(std::shared_ptr<ScheduleStrategy> strategy,
                             ScheduleOptions opts) {
  ANNSIM_CHECK_MSG(strategy != nullptr, "arm: null strategy");
  std::lock_guard lk(mu_);
  ANNSIM_CHECK_MSG(tracked_ == 0, "arm: controller has live tracked threads");
  strategy_ = std::move(strategy);
  opts_ = opts;
  trace_ = ScheduleTrace{};
  stop_ = false;
  channels_.clear();
  channel_seq_.clear();
  rank_seq_.clear();
  armed_.store(true, std::memory_order_release);
}

ScheduleTrace ScheduleController::disarm() {
  std::lock_guard lk(mu_);
  ANNSIM_CHECK_MSG(tracked_ == 0, "disarm: controller has live tracked threads");
  armed_.store(false, std::memory_order_release);
  strategy_.reset();
  channels_.clear();
  return std::move(trace_);
}

bool ScheduleController::armed() const noexcept {
  return armed_.load(std::memory_order_acquire);
}

bool ScheduleController::begin_run(int n_threads) {
  std::lock_guard lk(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return false;
  tracked_ += n_threads;
  runnable_ += n_threads;
  return true;
}

void ScheduleController::attach_thread() { t_controller = this; }

bool ScheduleController::claim_caller() {
  if (controls_this_thread()) {
    ++t_caller_claims;
    return true;
  }
  if (!begin_run(1)) return false;
  attach_thread();
  t_caller_claims = 1;
  return true;
}

void ScheduleController::release_caller() {
  if (t_controller != this || t_caller_claims == 0) return;
  if (--t_caller_claims == 0) finish_thread();
}

void ScheduleController::finish_thread() {
  t_controller = nullptr;
  std::lock_guard lk(mu_);
  --tracked_;
  --runnable_;
  if (tracked_ == 0) {
    flush_channels_locked();
  } else if (runnable_ == 0 && !stop_) {
    schedule_locked();
  }
}

bool ScheduleController::controls_this_thread() const noexcept {
  return t_controller == this && armed_.load(std::memory_order_acquire);
}

bool ScheduleController::submit(ChoiceEvent ev, std::function<void()> commit,
                                const void* owner) {
  if (!controls_this_thread()) return false;
  std::lock_guard lk(mu_);
  const ChannelKey key{ev.source, ev.dest, ev.comm_id};
  ev.seq = channel_seq_[key]++;
  channels_[key].push_back(ChannelEntry{ev, std::move(commit), owner});
  return true;
}

void ScheduleController::flush_owner(const void* owner) {
  std::lock_guard lk(mu_);
  flush_channels_locked(owner, /*all=*/false);
}

void ScheduleController::park_and_wait(std::unique_lock<std::mutex>& lk,
                                       Parked& entry) {
  entry.seq = rank_seq_[entry.rank]++;
  parked_.push_back(&entry);
  --runnable_;
  if (runnable_ == 0 && !stop_) schedule_locked();
  entry.cv.wait(lk, [&entry] { return entry.woken; });
  parked_.erase(std::find(parked_.begin(), parked_.end(), &entry));
  if (stop_) {
    std::string why = trace_.error;
    lk.unlock();
    throw Error("annsim::explore: " + why);
  }
}

bool ScheduleController::wait_point(int rank, std::function<bool()> ready) {
  if (!controls_this_thread()) return false;
  std::unique_lock lk(mu_);
  if (stop_) throw Error("annsim::explore: " + trace_.error);
  if (ready()) return true;
  Parked entry;
  entry.rank = rank;
  entry.ready = std::move(ready);
  park_and_wait(lk, entry);
  return true;
}

ScheduleController::TimedOutcome ScheduleController::timed_wait_point(
    int rank, std::function<bool()> ready) {
  if (!controls_this_thread()) return TimedOutcome::kPassThrough;
  std::unique_lock lk(mu_);
  if (stop_) throw Error("annsim::explore: " + trace_.error);
  if (ready()) return TimedOutcome::kReady;
  Parked entry;
  entry.rank = rank;
  entry.ready = std::move(ready);
  entry.timed = true;
  entry.ev.kind = ChoiceKind::kTimeout;
  entry.ev.source = rank;
  entry.ev.dest = rank;
  entry.ev.seq = rank_seq_[rank];  // park_and_wait assigns the same value
  park_and_wait(lk, entry);
  return entry.timed_out ? TimedOutcome::kTimedOut : TimedOutcome::kReady;
}

bool ScheduleController::rma_point(int origin, int target,
                                   std::uint64_t window_id) {
  if (!controls_this_thread()) return false;
  std::unique_lock lk(mu_);
  if (stop_) throw Error("annsim::explore: " + trace_.error);
  Parked entry;
  entry.rank = origin;
  entry.rma = true;
  entry.ev.kind = ChoiceKind::kRma;
  entry.ev.source = origin;
  entry.ev.dest = target;
  entry.ev.comm_id = window_id;
  entry.ev.seq = rank_seq_[origin];
  park_and_wait(lk, entry);
  return true;
}

void ScheduleController::poke() {
  if (!armed_.load(std::memory_order_acquire)) return;
  std::lock_guard lk(mu_);
  if (tracked_ > 0 && runnable_ == 0 && !stop_) schedule_locked();
}

void ScheduleController::fold_digest_locked(const ChoiceEvent& ev) {
  auto fold = [&](std::uint64_t v) {
    // FNV-1a over the event fields, 8 bytes at a time.
    for (int i = 0; i < 8; ++i) {
      trace_.digest ^= (v >> (i * 8)) & 0xff;
      trace_.digest *= 1099511628211ULL;
    }
  };
  fold(std::uint64_t(ev.kind));
  fold((std::uint64_t(std::uint32_t(ev.source)) << 32) |
       std::uint64_t(std::uint32_t(ev.dest)));
  fold(std::uint64_t(std::uint32_t(ev.tag)));
  fold(ev.comm_id);
  fold(ev.seq);
}

std::string ScheduleController::dump_locked() const {
  std::ostringstream os;
  os << "  parked threads:\n";
  for (const auto* e : parked_) {
    os << "    rank " << e->rank
       << (e->rma ? " (rma op)" : e->timed ? " (bounded wait)" : " (wait)")
       << "\n";
  }
  os << "  undelivered channels:\n";
  for (const auto& [key, ch] : channels_) {
    if (ch.empty()) continue;
    os << "    " << std::get<0>(key) << "->" << std::get<1>(key) << " comm="
       << std::get<2>(key) << ": " << ch.size() << " message(s), head tag="
       << ch.front().ev.tag << "\n";
  }
  return os.str();
}

void ScheduleController::fail_locked(bool deadlock, std::string why) {
  stop_ = true;
  trace_.deadlocked = deadlock;
  trace_.error = std::move(why);
  for (auto* e : parked_) {
    if (!e->woken) {
      e->woken = true;
      ++runnable_;
      e->cv.notify_one();
    }
  }
}

/// Flush every queued delivery into its mailbox, in canonical channel order.
/// Runs when the last tracked thread finishes: the post-run state must show
/// each sent-but-unreceived message in its destination queue (the checker's
/// unmatched-send sweep reads the mailboxes, and uncontrolled callers are
/// allowed to receive a message in a *later* run).
void ScheduleController::flush_channels_locked(const void* owner, bool all) {
  for (auto& [key, ch] : channels_) {
    for (auto it = ch.begin(); it != ch.end();) {
      if (!all && it->owner != owner) {
        ++it;
        continue;
      }
      fold_digest_locked(it->ev);
      ++trace_.commits;
      it->commit();
      it = ch.erase(it);
    }
  }
  if (all) channels_.clear();
}

/// The scheduler. Runs with mu_ held whenever every tracked thread is parked.
/// Each pass either (a) wakes exactly one parked thread whose wait already
/// resolved — so execution stays serialized — or (b) commits one eligible
/// event, then loops to see whether that unblocked anyone. No eligible event
/// and nobody ready means the program genuinely cannot progress: deadlock.
void ScheduleController::schedule_locked() {
  for (;;) {
    // Wake phase: among parked threads whose wait has resolved (message
    // arrived, timeout fired, RMA granted), wake the canonically first.
    Parked* wake = nullptr;
    for (auto* e : parked_) {
      if (e->woken) continue;
      const bool resolved = e->timed_out || e->granted ||
                            (e->ready != nullptr && e->ready());
      if (!resolved) continue;
      if (wake == nullptr || std::tie(e->rank, e->seq) <
                                 std::tie(wake->rank, wake->seq)) {
        wake = e;
      }
    }
    if (wake != nullptr) {
      wake->woken = true;
      ++runnable_;
      wake->cv.notify_one();
      return;
    }

    // Commit phase: build the canonically sorted eligible set.
    std::vector<ChoiceEvent> eligible;
    for (const auto& [key, ch] : channels_) {
      if (!ch.empty()) eligible.push_back(ch.front().ev);
    }
    for (const auto* e : parked_) {
      if (e->timed || e->rma) eligible.push_back(e->ev);
    }
    std::sort(eligible.begin(), eligible.end());

    if (eligible.empty()) {
      fail_locked(/*deadlock=*/true,
                  "schedule deadlock: every rank is blocked and no event is "
                  "eligible\n" + dump_locked());
      return;
    }
    if (trace_.commits >= opts_.max_commits) {
      fail_locked(/*deadlock=*/false,
                  "schedule exceeded max_commits=" +
                      std::to_string(opts_.max_commits) +
                      " (livelock or runaway program)\n" + dump_locked());
      return;
    }

    std::size_t idx = 0;
    if (eligible.size() > 1) {
      ++trace_.branch_points;
      // A strategy may throw (strict replay divergence, DFS divergence) or
      // misbehave; either way the failure must go through fail_locked so
      // every parked thread is woken and unwinds — an escaping exception
      // here would leave stack-allocated Parked entries dangling in parked_
      // (and terminate the process when thrown out of finish_thread).
      std::string err;
      try {
        idx = strategy_->pick(eligible);
        if (idx >= eligible.size()) {
          err = "strategy picked index " + std::to_string(idx) + " of " +
                std::to_string(eligible.size());
        }
      } catch (const std::exception& e) {
        err = e.what();
      }
      // One byte per decision keeps replay tokens compact; eligible sets are
      // bounded by channels + parked ranks, far below 256 for any sane config.
      if (err.empty() && eligible.size() > 256) {
        err = "eligible set too large for one-byte replay choices";
      }
      if (!err.empty()) {
        fail_locked(/*deadlock=*/false, std::move(err));
        return;
      }
      trace_.choices.push_back(std::uint8_t(idx));
    }
    const ChoiceEvent chosen = eligible[idx];
    fold_digest_locked(chosen);
    ++trace_.commits;

    switch (chosen.kind) {
      case ChoiceKind::kDeliver: {
        const ChannelKey key{chosen.source, chosen.dest, chosen.comm_id};
        auto& ch = channels_[key];
        auto entry = std::move(ch.front());
        ch.pop_front();
        entry.commit();
        break;
      }
      case ChoiceKind::kTimeout:
      case ChoiceKind::kRma: {
        for (auto* e : parked_) {
          if ((e->timed || e->rma) && e->ev == chosen) {
            if (chosen.kind == ChoiceKind::kTimeout) e->timed_out = true;
            else e->granted = true;
            break;
          }
        }
        break;
      }
    }
  }
}

}  // namespace annsim::mpi
