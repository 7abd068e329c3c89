#pragma once
/// \file fault.hpp
/// \brief Deterministic, seeded fault injection for the simulated MPI runtime.
///
/// The threads-as-ranks runtime makes worker failure cheap to reproduce: a
/// "killed" rank keeps running (its thread cannot be torn out from under the
/// C++ runtime), but every user-visible effect it would have on other ranks —
/// point-to-point sends with user tags and one-sided RMA mutations (put /
/// get_accumulate) — is silently dropped from the kill point onward. That is
/// the classic fail-silent model: peers observe only missing messages, never
/// an error, and must detect the failure with timeouts (Comm::recv_for,
/// Request::wait_for).
///
/// Failure model boundaries, chosen deliberately:
///  * Collective traffic (internal tags < 0) is never faulted. Injecting
///    faults into barrier/bcast would deadlock every rank by construction;
///    the interesting failures — and the ones the engine's failover handles —
///    live on the request/response data plane.
///  * User tags listed in `FaultPlan::reliable_tags` ride a reliable fabric:
///    never dropped or delayed, and they do not consume the sender's op
///    budget. This is the control plane — termination tokens whose loss no
///    timeout can compensate for (a worker that never hears End-of-Queries
///    spins forever, hanging the whole runtime). Reliable is *not* the same
///    as death-proof: a dead rank is silent on every user tag, reliable ones
///    included — otherwise a killed worker would keep heartbeating and no
///    health monitor could ever notice it died.
///  * Window::get (a pure read) is not faulted: a dead rank reading remote
///    memory has no observable effect on its peers.
///  * Traffic counters record *attempted* sends: the sender paid the cost
///    even when the fabric (or its own death) ate the message.
///
/// Every probabilistic decision is a pure function of (seed, rank, op index),
/// so a chaos run is replayable from its logged seed regardless of thread
/// scheduling.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace annsim::mpi {

/// Sentinel for kill triggers that never fire.
inline constexpr std::uint64_t kNeverFires = ~std::uint64_t{0};

/// One kill schedule entry: the rank goes silent once either trigger fires.
struct KillRule {
  int rank = -1;                           ///< global runtime rank to kill
  std::uint64_t after_ops = kNeverFires;   ///< deliver this many user ops, then die
  std::uint64_t at_step = kNeverFires;     ///< die once the logical step clock reaches this
};

/// What the disk does to the write-ahead-log frame the fault fires on. All
/// four kinds are terminal: the rank dies at the fault, so nothing past the
/// corrupted frame was ever acked — recovery may truncate at the first bad
/// frame without losing an acknowledged write.
enum class DiskFaultKind : std::uint8_t {
  kCrashAtLsn,  ///< process dies before the frame reaches the page cache
  kShortWrite,  ///< power loss mid-write: a prefix of the frame lands
  kTornWrite,   ///< frame-sized region allocated, tail half never written
  kFlipByte,    ///< media corruption: one payload byte bit-flipped
};

/// One disk-fault schedule entry: fires on the first WAL frame of `rank`
/// whose LSN reaches `at_lsn`, then marks the rank dead (fail-silent, like a
/// KillRule) so the MPI and disk planes agree the worker is gone.
struct DiskFaultRule {
  int rank = -1;
  std::uint64_t at_lsn = kNeverFires;
  DiskFaultKind kind = DiskFaultKind::kCrashAtLsn;
};

/// A reproducible fault schedule for one Runtime. Default-constructed plans
/// are inert (enabled() == false) and cost nothing on the send path.
struct FaultPlan {
  std::uint64_t seed = 0;            ///< stream seed for drop/delay decisions
  double drop_probability = 0.0;     ///< per user op, uniform in [0, 1]
  double delay_probability = 0.0;    ///< per user op, uniform in [0, 1]
  std::chrono::microseconds delay{0};  ///< sender-side stall for delayed ops
  /// Per best-effort op: the fabric delivers the message twice. Reliable tags
  /// are exempt (the control plane is exactly-once by construction), so
  /// duplicates only ever land on data-plane tags whose receivers must
  /// already tolerate retransmission (failover re-dispatch looks identical).
  double duplicate_probability = 0.0;
  /// Per best-effort op: the message overtakes everything queued ahead of it
  /// at the receiver (delivered out of order). Reliable tags are exempt.
  double reorder_probability = 0.0;
  std::vector<KillRule> kills;
  /// Disk-fault plane: deterministic WAL corruption keyed by LSN rather than
  /// op index (the write path consults it from commit(), where the op budget
  /// does not apply).
  std::vector<DiskFaultRule> disk_faults;
  /// Control-plane user tags (>= 0) on the reliable fabric — exempt from
  /// drop/delay rolls and the op budget, but still silenced once the sending
  /// rank is dead (fail-silent means silent everywhere).
  std::vector<std::int32_t> reliable_tags;

  [[nodiscard]] bool enabled() const noexcept {
    return drop_probability > 0.0 || delay_probability > 0.0 ||
           duplicate_probability > 0.0 || reorder_probability > 0.0 ||
           !kills.empty() || !disk_faults.empty();
  }
};

/// Verdict for one best-effort op: how the fabric treats the message.
enum class Delivery : std::uint8_t {
  kDrop,       ///< message vanishes (drop roll lost, or sender dead)
  kDeliver,    ///< normal in-order delivery
  kDuplicate,  ///< delivered twice (retransmission)
  kReorder,    ///< overtakes messages already queued at the receiver
};

/// Runtime state of one plan: per-rank op counters, death flags, and the
/// logical step clock. Thread-safe — a worker's whole thread team funnels its
/// sends through allow_op concurrently.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int n_ranks);

  /// Consult the plan for the next user-visible op (p2p send or RMA
  /// mutation) of `global_rank`. Returns false when the op must be dropped —
  /// the rank is dead, just died, or lost the drop roll — and sleeps inline
  /// on delay rolls (the sender thread stalls, exactly like a slow link).
  bool allow_op(int global_rank);

  /// Like allow_op, but additionally rolls the duplicate/reorder dice so the
  /// p2p send path can mis-deliver best-effort messages. Drop wins over
  /// duplicate wins over reorder (a dropped message cannot also arrive
  /// twice). RMA mutations keep using allow_op: an accumulate is applied
  /// in-place, so "duplicate" and "reorder" have no meaning there.
  Delivery classify_op(int global_rank);

  /// Gate a reliable-tag op: consumes no op budget and rolls no dice, but
  /// returns false once the sender is dead (evaluating pending kill triggers
  /// so a rank that idles on the control plane still dies on schedule).
  bool allow_reliable_op(int global_rank);

  /// Is `tag` on the plan's control plane (exempt from drop/delay/budget)?
  [[nodiscard]] bool is_reliable(std::int32_t tag) const noexcept;

  /// Consult the disk-fault plane for `global_rank` about the WAL frame at
  /// `lsn`. Fires at most once per rule: the first frame whose LSN reaches
  /// `at_lsn` gets the fault kind back and the rank is marked dead (all disk
  /// faults are terminal). Returns nullopt on the fast path. Thread-safe and
  /// deterministic: the WAL serializes commits, and LSNs are globally
  /// monotone, so the firing frame is a pure function of the plan.
  std::optional<DiskFaultKind> disk_fault_at(int global_rank,
                                             std::uint64_t lsn);

  /// Resurrect a rank: clears its death flag and disarms its kill triggers
  /// (MPI and disk alike) so they cannot re-fire. Call only between run()
  /// phases (the rank threads must be joined) — the recovery layer revives a
  /// worker, restores its replicas, and only then starts the next phase.
  void revive(int global_rank);

  /// Advance the logical step clock that `KillRule::at_step` triggers on.
  /// The application defines what a step is (a batch, a phase, an epoch).
  void advance_step() noexcept { step_.fetch_add(1, std::memory_order_acq_rel); }

  [[nodiscard]] std::uint64_t step() const noexcept {
    return step_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool is_dead(int global_rank) const;
  /// Ranks whose kill rule has fired so far, ascending.
  [[nodiscard]] std::vector<int> dead_ranks() const;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] int n_ranks() const noexcept { return n_ranks_; }

 private:
  struct RankState {
    std::atomic<std::uint64_t> ops{0};
    /// Index of the first op dropped because the rank died; kNeverFires
    /// while alive. Ops claimed below it were sent before the death.
    std::atomic<std::uint64_t> dead_from{kNeverFires};
    std::uint64_t kill_after_ops = kNeverFires;
    std::uint64_t kill_at_step = kNeverFires;
    std::atomic<std::uint64_t> disk_fault_lsn{kNeverFires};
    DiskFaultKind disk_fault_kind = DiskFaultKind::kCrashAtLsn;

    [[nodiscard]] bool dead() const noexcept {
      return dead_from.load(std::memory_order_acquire) != kNeverFires;
    }
  };
  /// Mark `rs` dead from op index `from_op` on (the lowest mark wins).
  static void mark_dead(RankState& rs, std::uint64_t from_op);

  FaultPlan plan_;
  int n_ranks_ = 0;
  std::atomic<std::uint64_t> step_{0};
  std::unique_ptr<RankState[]> ranks_;
};

}  // namespace annsim::mpi
