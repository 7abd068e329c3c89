#include <memory>

#include "annsim/common/error.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/mpi/schedule.hpp"

namespace annsim::core {

// The engine's runtime lifecycle (DESIGN.md §4.15): two persistent rank
// cohorts, started by the first operation that needs one and joined when
// the engine dies or a checker/schedule change retires them; the fault
// injector and the checker they run under; the one-sided result window the
// search cohort keeps across batches. engine.cpp holds what the operations
// do; worker_op there is the cohorts' one loop body.

mpi::TrafficStats DistributedAnnEngine::run_op(
    Lane& lane, std::span<const std::byte> op,
    std::shared_ptr<mpi::FaultInjector> injector,
    const std::function<void(mpi::Comm&)>& master,
    const std::function<void()>& before) {
  std::lock_guard lock(lane.mu);
  if (lane.rt == nullptr) {
    auto rt = std::make_unique<mpi::Runtime>(int(config_.n_workers) + 1);
    configure_runtime_check(*rt);
    lane.windows.assign(config_.n_workers + 1, mpi::Window{});
    rt->start([l = &lane](mpi::Comm& world, std::span<const std::byte> body) {
      l->engine->worker_op(world, body);
    });
    std::lock_guard check(sync_->check);  // check_report() reads lane.rt
    lane.rt = std::move(rt);
  }
  lane.engine = this;
  if (lane.rt->fault_injector() != injector.get()) {
    lane.rt->set_fault_injector(std::move(injector));
  }
  if (before) before();
  return lane.rt->operate(op, master);
}

void DistributedAnnEngine::retire_lanes() {
  for (Lane* lane : {search_lane_.get(), admin_lane_.get()}) {
    if (lane == nullptr) continue;
    std::lock_guard lock(lane->mu);
    if (lane->rt == nullptr) continue;
    lane->rt->stop();
    lane->windows.clear();
    std::lock_guard check(sync_->check);
    if (lane->rt->check_enabled()) check_report_.merge(lane->rt->check_report());
    lane->retired_threads += lane->rt->threads_started();
    lane->rt.reset();
  }
}

void DistributedAnnEngine::set_mpi_check(bool enabled, bool fatal) {
  retire_lanes();
  config_.mpi_check = enabled;
  config_.check_fatal = fatal;
}

void DistributedAnnEngine::set_schedule(
    std::shared_ptr<mpi::ScheduleController> schedule) {
  retire_lanes();
  schedule_ = std::move(schedule);
}

std::uint64_t DistributedAnnEngine::rank_threads_started() const {
  std::uint64_t n = 0;
  std::lock_guard check(sync_->check);
  for (const Lane* lane : {search_lane_.get(), admin_lane_.get()}) {
    n += lane->retired_threads;
    if (lane->rt != nullptr) n += lane->rt->threads_started();
  }
  return n;
}

check::CheckReport DistributedAnnEngine::check_report() const {
  std::lock_guard lock(sync_->check);
  check::CheckReport report = check_report_;
  for (const Lane* lane : {search_lane_.get(), admin_lane_.get()}) {
    if (lane->rt != nullptr && lane->rt->check_enabled()) {
      report.merge(lane->rt->check_report());
    }
  }
  return report;
}

void DistributedAnnEngine::configure_runtime_check(mpi::Runtime& rt) const {
  // Every engine runtime flows through here before it starts, so the
  // schedule controller rides along with the checker install.
  if (schedule_ != nullptr) rt.set_schedule(schedule_);
  if (!config_.mpi_check && !check::env_check_enabled()) return;
  check::CheckOptions o;
  o.enabled = true;
  o.fatal = config_.check_fatal;
  // The engine's control plane: termination, completion notices, liveness
  // beacons. Data-plane code must never send these plainly (or swallow them
  // through a wildcard) — the reserved-tag and wildcard rules enforce it.
  o.reserved_tags = {kTagEoq,    kTagDone,   kTagHeartbeat, kTagWake,
                     kTagInsert, kTagDelete, kTagWriteAck, kTagCompact};
  if (config_.result_timeout_ms > 0.0 || config_.fault.enabled()) {
    // With failure detection armed, these are by-design abandonable: a
    // worker declared dead (perhaps too eagerly) keeps sending slot-full
    // notices, done notices, and beacons that nobody will ever drain, and a
    // slot-full notice outlives the collection loop once a header sweep has
    // answered its query. Residue is still counted in the report, just not a
    // violation. The write plane's tags join the list because a rank killed
    // mid-round leaves its batch (or its ack) undrained by design. The
    // injector alone (no detection) is already enough to abandon: every
    // write-plane recv becomes a recv_for, and an expired deadline —
    // wall-clock or schedule-forced — walks away from the peer's in-flight
    // batch or ack. Found by annsim::explore: gating this list on detection
    // only made every schedule that fires a round timeout a false
    // unmatched-send violation.
    o.best_effort_tags = {kTagSlotFull, kTagDone,     kTagHeartbeat,
                          kTagInsert,   kTagDelete,   kTagWriteAck,
                          kTagCompact};
  }
  rt.configure_check(o);
}

std::shared_ptr<mpi::FaultInjector> DistributedAnnEngine::shared_injector() {
  // Searches (scheduler thread) and writes/compactions (writer or background
  // threads) may race on first use; the lock makes creation once-only.
  std::lock_guard lock(sync_->injector);
  if (injector_ == nullptr && config_.fault.enabled()) {
    mpi::FaultPlan plan = config_.fault;
    // The control plane rides the reliable fabric: End-of-Queries (a worker
    // that never hears it spins forever), heartbeats (a dropped beat would
    // read as a death), stream wakes (rank 0 to itself: a lost one would
    // strand an admitted query), and replica streams (healing must complete
    // under drop_probability). The write plane's four tags are control plane too:
    // a dropped insert would silently fork replicas of the same partition.
    // Slot-full notices ride it so that they cost no op budget: kill points
    // and drop sequences stay where the accumulates alone put them.
    // Death still silences all of them — see fault.hpp.
    plan.reliable_tags.push_back(kTagEoq);
    plan.reliable_tags.push_back(kTagHeartbeat);
    plan.reliable_tags.push_back(kTagWake);
    plan.reliable_tags.push_back(kTagSlotFull);
    plan.reliable_tags.push_back(kTagReplica);
    plan.reliable_tags.push_back(kTagInsert);
    plan.reliable_tags.push_back(kTagDelete);
    plan.reliable_tags.push_back(kTagWriteAck);
    plan.reliable_tags.push_back(kTagCompact);
    injector_ = std::make_shared<mpi::FaultInjector>(
        plan, int(config_.n_workers) + 1);
  }
  return injector_;
}

mpi::Window& DistributedAnnEngine::result_window(mpi::Comm& world) {
  mpi::Window& win = search_lane_->windows[std::size_t(world.rank())];
  // Collective on the first search, when every rank's handle
  // is still empty; prepare_result_window() sizes it from then on.
  if (!win.valid()) {
    win = world.create_window(world.rank() == 0 ? search_lane_->window_bytes
                                                : 0);
  }
  return win;
}

void DistributedAnnEngine::prepare_result_window(std::size_t bytes) {
  search_lane_->window_bytes = bytes;
  mpi::Window& win = search_lane_->windows[0];
  // Before the control message: no worker holds an epoch yet. A window not
  // created yet is created by the operation, at this size.
  if (win.valid()) win.grow_local(bytes);
}

}  // namespace annsim::core
