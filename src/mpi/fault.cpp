#include "annsim/mpi/fault.hpp"

#include <algorithm>

#include "annsim/common/backoff.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"

namespace annsim::mpi {

namespace {

// Stateless uniform draw: a pure function of (seed, rank, op, salt) so the
// decision for "rank r's op number n" is identical across runs even though
// the rank's threads race to claim op indices.
double u01(std::uint64_t seed, int rank, std::uint64_t op, std::uint64_t salt) {
  SplitMix64 sm(seed ^ (std::uint64_t(rank) + 1) * 0x9e3779b97f4a7c15ULL ^
                (op + 1) * 0xc2b2ae3d27d4eb4fULL ^ salt * 0x165667b19e3779f9ULL);
  (void)sm.next();  // decorrelate nearby inputs
  return double(sm.next() >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, int n_ranks)
    : plan_(std::move(plan)), n_ranks_(n_ranks) {
  ANNSIM_CHECK_MSG(n_ranks_ >= 1, "FaultInjector needs at least one rank");
  ANNSIM_CHECK_MSG(
      plan_.drop_probability >= 0.0 && plan_.drop_probability <= 1.0,
      "fault.drop_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(
      plan_.delay_probability >= 0.0 && plan_.delay_probability <= 1.0,
      "fault.delay_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(plan_.delay.count() >= 0, "fault.delay cannot be negative");
  ANNSIM_CHECK_MSG(
      plan_.duplicate_probability >= 0.0 && plan_.duplicate_probability <= 1.0,
      "fault.duplicate_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(
      plan_.reorder_probability >= 0.0 && plan_.reorder_probability <= 1.0,
      "fault.reorder_probability must be within [0, 1]");
  for (const std::int32_t tag : plan_.reliable_tags) {
    ANNSIM_CHECK_MSG(tag >= 0, "fault.reliable_tags entry "
                                   << tag << " must be a user tag (>= 0)");
  }
  ranks_ = std::make_unique<RankState[]>(std::size_t(n_ranks_));
  for (const KillRule& kill : plan_.kills) {
    ANNSIM_CHECK_MSG(kill.rank >= 0 && kill.rank < n_ranks_,
                     "fault.kills rank " << kill.rank
                                         << " outside runtime ranks [0, "
                                         << n_ranks_ << ")");
    auto& rs = ranks_[std::size_t(kill.rank)];
    rs.kill_after_ops = std::min(rs.kill_after_ops, kill.after_ops);
    rs.kill_at_step = std::min(rs.kill_at_step, kill.at_step);
  }
  for (const DiskFaultRule& df : plan_.disk_faults) {
    ANNSIM_CHECK_MSG(df.rank >= 0 && df.rank < n_ranks_,
                     "fault.disk_faults rank " << df.rank
                                               << " outside runtime ranks [0, "
                                               << n_ranks_ << ")");
    auto& rs = ranks_[std::size_t(df.rank)];
    // Earliest rule wins when several target the same rank — the rank dies
    // at the first fault, so later rules could never fire anyway.
    if (df.at_lsn < rs.disk_fault_lsn.load(std::memory_order_relaxed)) {
      rs.disk_fault_lsn.store(df.at_lsn, std::memory_order_relaxed);
      rs.disk_fault_kind = df.kind;
    }
  }
}

void FaultInjector::mark_dead(RankState& rs, std::uint64_t from_op) {
  // Keep the lowest mark: racing triggers agree on the earliest dropped op.
  std::uint64_t cur = rs.dead_from.load(std::memory_order_acquire);
  while (from_op < cur && !rs.dead_from.compare_exchange_weak(
                              cur, from_op, std::memory_order_acq_rel)) {
  }
}

bool FaultInjector::allow_op(int global_rank) {
  return classify_op(global_rank) != Delivery::kDrop;
}

Delivery FaultInjector::classify_op(int global_rank) {
  ANNSIM_CHECK(global_rank >= 0 && global_rank < n_ranks_);
  auto& rs = ranks_[std::size_t(global_rank)];
  const std::uint64_t op = rs.ops.fetch_add(1, std::memory_order_acq_rel);
  // The verdict depends on the claimed index, never on when the claiming
  // thread got round to reading the death mark: a thread preempted between
  // claiming op 99 and checking must still deliver it when another thread's
  // op 100 exhausts a 100-op budget meanwhile.
  if (op >= rs.dead_from.load(std::memory_order_acquire)) return Delivery::kDrop;
  if (op >= rs.kill_after_ops) {
    mark_dead(rs, rs.kill_after_ops);
    return Delivery::kDrop;
  }
  if (step_.load(std::memory_order_acquire) >= rs.kill_at_step) {
    mark_dead(rs, op);
    return Delivery::kDrop;
  }
  if (plan_.drop_probability > 0.0 &&
      u01(plan_.seed, global_rank, op, 1) < plan_.drop_probability) {
    return Delivery::kDrop;
  }
  if (plan_.delay_probability > 0.0 && plan_.delay.count() > 0 &&
      u01(plan_.seed, global_rank, op, 2) < plan_.delay_probability) {
    sleep_approx(
        std::chrono::duration_cast<std::chrono::microseconds>(plan_.delay));
  }
  // Mis-delivery rolls are independent of the drop/delay stream (distinct
  // salts), so enabling duplicates does not perturb which ops get dropped —
  // a chaos run stays comparable as rules are layered on.
  if (plan_.duplicate_probability > 0.0 &&
      u01(plan_.seed, global_rank, op, 3) < plan_.duplicate_probability) {
    return Delivery::kDuplicate;
  }
  if (plan_.reorder_probability > 0.0 &&
      u01(plan_.seed, global_rank, op, 4) < plan_.reorder_probability) {
    return Delivery::kReorder;
  }
  return Delivery::kDeliver;
}

bool FaultInjector::allow_reliable_op(int global_rank) {
  ANNSIM_CHECK(global_rank >= 0 && global_rank < n_ranks_);
  auto& rs = ranks_[std::size_t(global_rank)];
  if (rs.dead()) return false;
  // Evaluate kill triggers without claiming an op index: a rank whose budget
  // already ran out (or whose step came) is dead even if its next send
  // happens to be a control-plane message.
  const std::uint64_t ops = rs.ops.load(std::memory_order_acquire);
  if (ops >= rs.kill_after_ops) {
    mark_dead(rs, rs.kill_after_ops);
    return false;
  }
  if (step_.load(std::memory_order_acquire) >= rs.kill_at_step) {
    mark_dead(rs, ops);
    return false;
  }
  return true;
}

std::optional<DiskFaultKind> FaultInjector::disk_fault_at(int global_rank,
                                                          std::uint64_t lsn) {
  ANNSIM_CHECK(global_rank >= 0 && global_rank < n_ranks_);
  auto& rs = ranks_[std::size_t(global_rank)];
  std::uint64_t armed = rs.disk_fault_lsn.load(std::memory_order_acquire);
  if (lsn < armed) return std::nullopt;
  // Fire exactly once: the CAS loser observes kNeverFires and stands down.
  if (!rs.disk_fault_lsn.compare_exchange_strong(armed, kNeverFires,
                                                 std::memory_order_acq_rel)) {
    return std::nullopt;
  }
  mark_dead(rs, rs.ops.load(std::memory_order_acquire));
  return rs.disk_fault_kind;
}

void FaultInjector::revive(int global_rank) {
  ANNSIM_CHECK(global_rank >= 0 && global_rank < n_ranks_);
  auto& rs = ranks_[std::size_t(global_rank)];
  // Plain writes are fine: revive() is specified to run between runtime
  // phases, after every rank thread has been joined.
  rs.kill_after_ops = kNeverFires;
  rs.kill_at_step = kNeverFires;
  rs.disk_fault_lsn.store(kNeverFires, std::memory_order_release);
  rs.dead_from.store(kNeverFires, std::memory_order_release);
}

bool FaultInjector::is_reliable(std::int32_t tag) const noexcept {
  return std::find(plan_.reliable_tags.begin(), plan_.reliable_tags.end(),
                   tag) != plan_.reliable_tags.end();
}

bool FaultInjector::is_dead(int global_rank) const {
  ANNSIM_CHECK(global_rank >= 0 && global_rank < n_ranks_);
  return ranks_[std::size_t(global_rank)].dead();
}

std::vector<int> FaultInjector::dead_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < n_ranks_; ++r) {
    if (ranks_[std::size_t(r)].dead()) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace annsim::mpi
