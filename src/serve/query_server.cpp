#include "annsim/serve/query_server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "annsim/common/error.hpp"
#include "annsim/common/log.hpp"
#include "annsim/data/dataset.hpp"

namespace annsim::serve {

namespace {

double to_ms(std::chrono::steady_clock::duration d) noexcept {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

const char* to_string(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kDeadlineExpired: return "deadline-expired";
    case QueryStatus::kShutdown: return "shutdown";
    case QueryStatus::kError: return "error";
    case QueryStatus::kDegraded: return "degraded";
    case QueryStatus::kShed: return "shed";
  }
  return "unknown";
}

const char* to_string(PriorityClass c) noexcept {
  switch (c) {
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kBatch: return "batch";
    case PriorityClass::kBestEffort: return "best-effort";
  }
  return "unknown";
}

QueryServer::QueryServer(core::DistributedAnnEngine* engine,
                         ServerConfig config)
    : engine_(engine), config_(config) {
  ANNSIM_CHECK(engine_ != nullptr);
  ANNSIM_CHECK_MSG(engine_->built(),
                   "QueryServer requires a built engine (call build() first)");
  ANNSIM_CHECK_MSG(config_.max_batch >= 1, "max_batch must be nonzero");
  ANNSIM_CHECK_MSG(config_.queue_capacity >= 1,
                   "queue_capacity must be nonzero");
  ANNSIM_CHECK_MSG(config_.max_delay_ms >= 0.0,
                   "max_delay_ms cannot be negative");
  ANNSIM_CHECK_MSG(config_.retry_backoff_ms >= 0.0,
                   "retry_backoff_ms cannot be negative");
  ANNSIM_CHECK_MSG(
      config_.compact_at_fill == 0 ||
          engine_->config().local_index == core::LocalIndexKind::kSegmented,
      "compact_at_fill requires a segmented engine (local_index=segmented)");
  ANNSIM_CHECK_MSG(config_.brownout_target_ms >= 0.0,
                   "brownout_target_ms cannot be negative (got "
                       << config_.brownout_target_ms << "; 0 disables brownout)");
  ANNSIM_CHECK_MSG(config_.brownout_floor > 0.0 && config_.brownout_floor <= 1.0,
                   "brownout_floor must be within (0, 1] (got "
                       << config_.brownout_floor << ")");
  ANNSIM_CHECK_MSG(
      config_.brownout_target_ms == 0.0 ||
          engine_->config().strategy == core::DispatchStrategy::kMasterWorker,
      "brownout_target_ms requires the master-worker dispatch strategy "
      "(per-query effort overrides ride its dispatch path)");
  ANNSIM_CHECK_MSG(
      config_.breaker_threshold >= 0.0 && config_.breaker_threshold <= 1.0,
      "breaker_threshold must be within [0, 1] (got "
          << config_.breaker_threshold << "; 0 disables the breaker)");
  ANNSIM_CHECK_MSG(config_.breaker_open_ms >= 0.0,
                   "breaker_open_ms cannot be negative (got "
                       << config_.breaker_open_ms << ")");
  if (config_.breaker_threshold > 0.0) {
    ANNSIM_CHECK_MSG(config_.breaker_window >= 1,
                     "breaker_window must be nonzero: the breaker needs at "
                     "least one outcome per evaluation");
    ANNSIM_CHECK_MSG(config_.breaker_probes >= 1,
                     "breaker_probes must be nonzero: half-open needs at "
                     "least one probe to test recovery");
  }
  dim_ = engine_->router().dim();
  max_delay_ = std::chrono::duration<double, std::milli>(config_.max_delay_ms);
  scheduler_ = std::thread([this] { scheduler_main(); });
}

QueryServer::~QueryServer() { stop(); }

std::future<QueryResponse> QueryServer::submit(std::vector<float> query,
                                               std::size_t k,
                                               double deadline_ms,
                                               PriorityClass cls) {
  ANNSIM_CHECK_MSG(query.size() == dim_, "query dimension "
                                             << query.size()
                                             << " != index dimension " << dim_);
  ANNSIM_CHECK_MSG(k >= 1, "k must be nonzero");
  ANNSIM_CHECK_MSG(std::size_t(cls) < kPriorityClasses,
                   "priority class " << int(cls)
                                     << " unknown (expected 0=interactive, "
                                        "1=batch, 2=best-effort)");

  Pending p;
  p.query = std::move(query);
  p.k = k;
  p.cls = cls;
  p.admitted = Clock::now();
  if (deadline_ms > 0.0) {
    p.deadline = p.admitted +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(deadline_ms));
  }
  auto fut = p.promise.get_future();

  std::unique_lock lk(mu_);
  // Deadline-aware culling: never enqueue a request that is already doomed —
  // expired on arrival, or unreachable per the service-time EWMA (the queue
  // ahead of it at its priority plus one batch of service). Shedding here
  // costs nothing downstream; shedding later costs a worker batch slot.
  if (config_.deadline_scheduling && !stopping_ &&
      p.deadline != Clock::time_point::max()) {
    const auto now = Clock::now();
    bool doomed = p.deadline <= now;
    if (!doomed && ewma_query_ms_ > 0.0) {
      std::size_t ahead = 0;
      for (const auto& q : queue_) {
        if (q.cls <= p.cls) ++ahead;
      }
      const auto est = std::chrono::duration<double, std::milli>(
          double(ahead) * ewma_query_ms_ + ewma_batch_ms_);
      doomed = now + std::chrono::duration_cast<Clock::duration>(est) >
               p.deadline;
    }
    if (doomed) {
      lk.unlock();
      shed_request(std::move(p), Clock::now());
      return fut;
    }
  }
  // Circuit breaker: while the engine cannot meet deadlines, fail fast
  // instead of queueing work that will only widen the outage.
  if (config_.breaker_threshold > 0.0 && !stopping_) {
    bool probe = false;
    if (!breaker_admit(Clock::now(), &probe)) {
      lk.unlock();
      metrics_.on_breaker_reject();
      QueryResponse resp;
      resp.status = QueryStatus::kShed;
      resp.total_ms = to_ms(Clock::now() - p.admitted);
      p.promise.set_value(std::move(resp));
      return fut;
    }
    p.breaker_probe = probe;
  }
  if (!stopping_ && queue_.size() >= config_.queue_capacity) {
    // Priority eviction: a full queue sheds its worst strictly-lower-class
    // entry (lowest class, then latest deadline) to admit a higher-class
    // arrival — interactive is the last to be turned away.
    if (config_.deadline_scheduling) {
      auto victim = queue_.end();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->cls <= p.cls) continue;  // only strictly lower classes evict
        if (victim == queue_.end() || it->cls > victim->cls ||
            (it->cls == victim->cls && it->deadline > victim->deadline)) {
          victim = it;
        }
      }
      if (victim != queue_.end()) {
        Pending evicted = std::move(*victim);
        queue_.erase(victim);
        shed_request(std::move(evicted), Clock::now());
      }
    }
    if (queue_.size() >= config_.queue_capacity) {
      if (config_.overflow == OverflowPolicy::kReject) {
        lk.unlock();
        metrics_.on_reject();
        QueryResponse resp;
        resp.status = QueryStatus::kRejected;
        p.promise.set_value(std::move(resp));
        return fut;
      }
      // kBlock: backpressure the submitter until the scheduler drains a slot.
      cv_space_.wait(lk, [&] {
        return stopping_ || queue_.size() < config_.queue_capacity;
      });
    }
  }
  if (stopping_) {
    lk.unlock();
    metrics_.on_fail();
    QueryResponse resp;
    resp.status = QueryStatus::kShutdown;
    resp.total_ms = to_ms(Clock::now() - p.admitted);
    p.promise.set_value(std::move(resp));
    return fut;
  }
  p.seq = next_seq_++;
  queue_.push_back(std::move(p));
  const std::size_t depth = queue_.size();
  lk.unlock();
  metrics_.on_submit(depth);
  cv_work_.notify_one();
  return fut;
}

void QueryServer::shed_request(Pending&& p, Clock::time_point now) {
  metrics_.on_shed();
  // A shed half-open probe never tested the engine; count it as a failed
  // probe so the breaker re-opens rather than dangling in half-open.
  if (p.breaker_probe) breaker_record(false, /*probe=*/true);
  QueryResponse resp;
  resp.status = QueryStatus::kShed;
  resp.total_ms = to_ms(now - p.admitted);
  p.promise.set_value(std::move(resp));
}

bool QueryServer::breaker_admit(Clock::time_point now, bool* probe) {
  std::lock_guard lk(breaker_.mu);
  switch (breaker_.state) {
    case Breaker::State::kClosed:
      return true;
    case Breaker::State::kOpen:
      if (now < breaker_.open_until) return false;
      // Open period served: admit a limited run of half-open probes.
      breaker_.state = Breaker::State::kHalfOpen;
      breaker_.probes_issued = 0;
      breaker_.probes_done = 0;
      [[fallthrough]];
    case Breaker::State::kHalfOpen:
      if (breaker_.probes_issued >= config_.breaker_probes) return false;
      ++breaker_.probes_issued;
      *probe = true;
      return true;
  }
  return true;
}

void QueryServer::breaker_record(bool success, bool probe) {
  if (config_.breaker_threshold <= 0.0) return;
  const auto open_for = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(config_.breaker_open_ms));
  bool tripped = false;
  {
    std::lock_guard lk(breaker_.mu);
    if (probe) {
      if (breaker_.state == Breaker::State::kHalfOpen) {
        ++breaker_.probes_done;
        if (!success) {
          // Recovery unproven: back to open for another full period.
          breaker_.state = Breaker::State::kOpen;
          breaker_.open_until = Clock::now() + open_for;
          tripped = true;
        } else if (breaker_.probes_done >= config_.breaker_probes) {
          // Every probe came back in-deadline: close with a fresh window.
          breaker_.state = Breaker::State::kClosed;
          breaker_.window_total = 0;
          breaker_.window_failures = 0;
        }
      }
      // A probe outcome landing after the state already moved on (another
      // probe re-opened, or a concurrent close) carries no information.
    } else if (breaker_.state == Breaker::State::kClosed) {
      ++breaker_.window_total;
      if (!success) ++breaker_.window_failures;
      if (breaker_.window_total >= config_.breaker_window) {
        const double rate =
            double(breaker_.window_failures) / double(breaker_.window_total);
        if (rate >= config_.breaker_threshold) {
          breaker_.state = Breaker::State::kOpen;
          breaker_.open_until = Clock::now() + open_for;
          tripped = true;
        }
        // Tumbling window: every evaluation starts from a clean slate.
        breaker_.window_total = 0;
        breaker_.window_failures = 0;
      }
    }
  }
  if (tripped) metrics_.on_breaker_trip();
}

double QueryServer::effort_factor(PriorityClass cls) const {
  if (config_.brownout_target_ms <= 0.0) return 1.0;
  const double p = pressure_.load(std::memory_order_relaxed);
  // Bottom-up degradation: each class starts shrinking only past its onset
  // pressure, so best-effort absorbs mild overload alone, batch joins under
  // sustained overload, and interactive gives ground only near saturation.
  static constexpr double kOnset[kPriorityClasses] = {0.75, 0.5, 0.0};
  const double onset = kOnset[std::size_t(cls)];
  if (p <= onset) return 1.0;
  const double frac = (p - onset) / (1.0 - onset);
  return 1.0 - frac * (1.0 - config_.brownout_floor);
}

void QueryServer::expire_overdue_locked(Clock::time_point now) {
  bool freed = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      QueryResponse resp;
      resp.status = QueryStatus::kDeadlineExpired;
      resp.total_ms = to_ms(now - it->admitted);
      // Record before fulfilling: a client woken by this future may snapshot
      // metrics immediately, and the expiry must already be counted. This is
      // the in-queue bucket: no worker ever touched the request.
      metrics_.on_expire_in_queue();
      if (it->breaker_probe) breaker_record(false, /*probe=*/true);
      it->promise.set_value(std::move(resp));
      it = queue_.erase(it);
      freed = true;
    } else {
      ++it;
    }
  }
  if (freed) cv_space_.notify_all();
}

void QueryServer::scheduler_main() {
  std::unique_lock lk(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (stopping_) break;
      cv_work_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      continue;
    }

    const auto now = Clock::now();
    // Deadlines are honored even for requests still waiting in the queue:
    // an expired request completes at its deadline, never later.
    expire_overdue_locked(now);
    if (queue_.empty()) continue;

    // Requests in retry backoff (not_before in the future) are invisible to
    // the flush decision until their gate opens — except when draining, when
    // everything still queued goes out immediately.
    const auto est_batch = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ewma_batch_ms_));
    std::size_t eligible = 0;
    auto flush_at = Clock::time_point::max();
    // Urgency flush (deadline scheduling): the tightest queued deadline,
    // minus one estimated batch of service — waiting for max_delay past this
    // point would make the request expire in flight.
    auto urgent_at = Clock::time_point::max();
    auto wake = Clock::time_point::max();
    for (const auto& p : queue_) {
      wake = std::min(wake, p.deadline);
      if (stopping_ || p.not_before <= now) {
        ++eligible;
        flush_at = std::min(
            flush_at,
            p.admitted + std::chrono::duration_cast<Clock::duration>(max_delay_));
        if (config_.deadline_scheduling && ewma_batch_ms_ > 0.0 &&
            p.deadline != Clock::time_point::max()) {
          // Two estimated batches of margin — one for the service time itself
          // and one so the won't-make-it check at batch formation still sees
          // the deadline as reachable — floored at a few milliseconds: when
          // batches are sub-millisecond the estimate alone is thinner than
          // scheduler wake jitter and the flushed request lands past its
          // deadline anyway.
          const auto margin = std::max(
              est_batch + est_batch,
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::milliseconds(5)));
          urgent_at = std::min(urgent_at, p.deadline - margin);
        }
      } else {
        wake = std::min(wake, p.not_before);
      }
    }
    if (!stopping_ && (eligible == 0 ||
                       (eligible < config_.max_batch && now < flush_at &&
                        now < urgent_at))) {
      // Sleep until the max_delay flush point, the urgency flush point, the
      // earliest queued deadline, the earliest backoff gate, a batch-filling
      // arrival, or stop() — whichever comes first.
      if (eligible > 0) wake = std::min({wake, flush_at, urgent_at});
      const std::size_t seen = queue_.size();
      cv_work_.wait_until(lk, wake, [&] {
        return stopping_ || queue_.size() >= config_.max_batch ||
               queue_.size() != seen;
      });
      continue;  // re-evaluate flush conditions from scratch
    }

    // Flush: reached max_batch, the oldest waited max_delay, a deadline
    // demands urgency, or draining.
    std::vector<Pending> batch;
    batch.reserve(std::min(config_.max_batch, eligible));
    if (!config_.deadline_scheduling) {
      // Legacy FIFO batch formation.
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < config_.max_batch;) {
        if (stopping_ || it->not_before <= now) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      // EDF batch formation: eligible requests ordered by (class, deadline,
      // admission) so the batch serves the highest class' tightest deadlines
      // first, with FIFO as the tie-break. Won't-make-it requests found at
      // the head are shed here rather than occupying a batch slot.
      std::vector<std::size_t> order;
      order.reserve(queue_.size());
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (stopping_ || queue_[i].not_before <= now) order.push_back(i);
      }
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Pending& pa = queue_[a];
        const Pending& pb = queue_[b];
        if (pa.cls != pb.cls) return pa.cls < pb.cls;
        if (pa.deadline != pb.deadline) return pa.deadline < pb.deadline;
        return pa.seq < pb.seq;
      });
      std::vector<char> taken(queue_.size(), 0);
      std::vector<Pending> doomed;
      for (const std::size_t i : order) {
        if (batch.size() >= config_.max_batch) break;
        Pending& p = queue_[i];
        if (!stopping_ && ewma_batch_ms_ > 0.0 &&
            p.deadline != Clock::time_point::max() &&
            now + est_batch > p.deadline) {
          taken[i] = 1;
          doomed.push_back(std::move(p));
          continue;
        }
        taken[i] = 1;
        batch.push_back(std::move(p));
      }
      if (!doomed.empty() || !batch.empty()) {
        std::deque<Pending> rest;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          if (!taken[i]) rest.push_back(std::move(queue_[i]));
        }
        queue_.swap(rest);
      }
      for (auto& p : doomed) shed_request(std::move(p), now);
      if (batch.empty()) {
        // Everything eligible was doomed; nothing to dispatch this round.
        cv_space_.notify_all();
        continue;
      }
    }
    cv_space_.notify_all();
    lk.unlock();
    run_batch(std::move(batch));
    lk.lock();
  }
}

void QueryServer::run_batch(std::vector<Pending> batch) {
  const auto dispatched = Clock::now();
  metrics_.on_batch(batch.size());

  data::Dataset queries(batch.size(), dim_);
  std::size_t k_max = 1;
  double queue_delay_ms = 0.0;  // oldest wait in this batch: the load signal
  for (std::size_t i = 0; i < batch.size(); ++i) {
    queries.set_row(i, batch[i].query);
    k_max = std::max(k_max, batch[i].k);
    queue_delay_ms = std::max(queue_delay_ms,
                              to_ms(dispatched - batch[i].admitted));
  }

  // Brownout controller (CoDel-style): queue delay above target raises
  // pressure a notch per batch; delay below half the target decays it. The
  // factor then scales each query's effort bottom-up by class.
  std::vector<core::EffortOverride> efforts;
  if (config_.brownout_target_ms > 0.0) {
    double pr = pressure_.load(std::memory_order_relaxed);
    if (queue_delay_ms > config_.brownout_target_ms) {
      pr = std::min(1.0, pr + 0.25);
    } else if (queue_delay_ms < config_.brownout_target_ms / 2.0) {
      pr = std::max(0.0, pr - 0.25);
    }
    pressure_.store(pr, std::memory_order_relaxed);
    metrics_.on_pressure(pr);

    const auto& ecfg = engine_->config();
    const auto base_ef = std::uint32_t(
        config_.ef != 0 ? config_.ef : ecfg.hnsw.ef_search);
    const auto base_probes =
        std::uint32_t(std::min(ecfg.n_probe, ecfg.n_workers));
    std::size_t reduced = 0;
    double min_factor = 1.0;
    efforts.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double f = effort_factor(batch[i].cls);
      batch[i].effort = f;
      if (f >= 1.0) continue;
      ++reduced;
      min_factor = std::min(min_factor, f);
      efforts[i].ef = std::max<std::uint32_t>(
          std::uint32_t(batch[i].k),
          std::uint32_t(std::lround(double(base_ef) * f)));
      efforts[i].max_probes = std::max<std::uint32_t>(
          1, std::uint32_t(std::lround(double(base_probes) * f)));
    }
    if (reduced > 0) {
      metrics_.on_brownout(reduced, min_factor);
    } else {
      efforts.clear();  // full effort across the batch: no overrides
    }
  }

  std::vector<char> completed(batch.size(), 0);
  std::vector<char> requeue(batch.size(), 0);
  // Degraded partial answers held back for a retry. If re-admission finds the
  // queue full the retry is forfeit and this response goes out instead — a
  // retry must never push the bounded admission queue past its capacity.
  std::vector<QueryResponse> fallback(batch.size());
  const auto backoff = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(config_.retry_backoff_ms));
  // Fires on the engine's master thread as each query's merge finishes, so a
  // fast query's future completes before its batch-mates are done.
  auto complete_one = [&](std::size_t i, const std::vector<Neighbor>& nn,
                          const core::QueryCoverage& cov) {
    Pending& p = batch[i];
    const auto now = Clock::now();
    QueryResponse resp;
    resp.batch_size = batch.size();
    resp.queue_ms = to_ms(dispatched - p.admitted);
    resp.total_ms = to_ms(now - p.admitted);
    resp.partitions_searched = cov.partitions_searched;
    resp.partitions_planned = cov.partitions_planned;
    resp.effort_factor = p.effort;
    resp.neighbors.assign(nn.begin(),
                          nn.begin() + std::ptrdiff_t(std::min(p.k, nn.size())));
    if (cov.degraded() && p.retries_used < config_.max_retries &&
        now + backoff < p.deadline) {
      // Workers died under this query and budget remains: hold the future and
      // requeue once the search returns, behind the backoff gate.
      resp.status = QueryStatus::kDegraded;
      fallback[i] = std::move(resp);
      requeue[i] = 1;
      return;
    }
    if (now > p.deadline) {
      // The search outlived the deadline: hand back what we computed, but
      // flagged — late answers must not masquerade as on-time ones. This is
      // the completed-late bucket: worker time was spent past its value.
      resp.status = QueryStatus::kDeadlineExpired;
      metrics_.on_complete_late();
      breaker_record(false, p.breaker_probe);
    } else if (cov.degraded()) {
      resp.status = QueryStatus::kDegraded;
      metrics_.on_complete_degraded(resp.total_ms, resp.queue_ms);
      breaker_record(true, p.breaker_probe);
    } else {
      resp.status = QueryStatus::kOk;
      metrics_.on_complete_ok(resp.total_ms, resp.queue_ms);
      breaker_record(true, p.breaker_probe);
    }
    completed[i] = 1;
    p.promise.set_value(std::move(resp));
  };

  try {
    (void)engine_->search(queries, k_max, config_.ef, nullptr,
                          [&](std::size_t qid, const std::vector<Neighbor>& nn,
                              const core::QueryCoverage& cov) {
                            complete_one(qid, nn, cov);
                          },
                          efforts);
  } catch (const std::exception& e) {
    ANNSIM_ERROR("serve: batch of " << batch.size()
                                    << " failed in engine search: "
                                    << e.what());
  }
  // Feed the admission estimator: per-query drain cost and whole-batch
  // service time, EWMA-smoothed so one slow batch does not start a shed storm
  // but sustained slowdown tightens won't-make-it culls within a few batches.
  {
    const double batch_ms = to_ms(Clock::now() - dispatched);
    const double per_query_ms = batch_ms / double(batch.size());
    std::lock_guard lk(mu_);
    constexpr double kAlpha = 0.2;
    ewma_query_ms_ = ewma_query_ms_ == 0.0
                         ? per_query_ms
                         : (1.0 - kAlpha) * ewma_query_ms_ + kAlpha * per_query_ms;
    ewma_batch_ms_ = ewma_batch_ms_ == 0.0
                         ? batch_ms
                         : (1.0 - kAlpha) * ewma_batch_ms_ + kAlpha * batch_ms;
  }
  // Safety net: any request the hook did not reach completes as an error
  // instead of leaving its client blocked on the future.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (completed[i] || requeue[i]) continue;
    metrics_.on_fail();
    breaker_record(false, batch[i].breaker_probe);
    QueryResponse resp;
    resp.status = QueryStatus::kError;
    resp.batch_size = batch.size();
    resp.total_ms = to_ms(Clock::now() - batch[i].admitted);
    batch[i].promise.set_value(std::move(resp));
  }
  // Self-healing on the batch boundary: search() has already folded this
  // batch's health transitions into the engine, and the scheduler thread is
  // the only one that touches the engine, so healing here cannot race a
  // search. The next batch — including any retries re-admitted below —
  // dispatches against the restored replicas.
  if (config_.auto_heal) {
    if (!engine_->health().dead_workers().empty()) {
      const auto heal = engine_->heal();
      metrics_.on_heal(heal.workers_revived, heal.fully_healed(),
                       heal.wal_replayed_records,
                       heal.wal_truncated_tail_bytes);
    }
    metrics_.on_health(engine_->under_replicated_partitions().size());
  }
  // Live mutability: when the write stream has filled any delta past the
  // threshold, re-freeze in the background — the engine's view hot-swap
  // keeps this batch boundary (and every following batch) non-blocking.
  maybe_compact();
  // Re-admit degraded requests whose retry budget allows another attempt.
  // Retries count against queue_capacity like any submit: when the queue is
  // full (or the server is draining) the degraded answer stands instead of
  // overflowing the bound and starving kBlock waiters / kReject admissions.
  bool readmitted = false;
  {
    std::lock_guard lk(mu_);
    const auto now = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!requeue[i]) continue;
      Pending& p = batch[i];
      if (stopping_ || queue_.size() >= config_.queue_capacity) {
        fallback[i].total_ms = to_ms(now - p.admitted);
        metrics_.on_complete_degraded(fallback[i].total_ms,
                                      fallback[i].queue_ms);
        breaker_record(true, p.breaker_probe);
        p.promise.set_value(std::move(fallback[i]));
        continue;
      }
      ++p.retries_used;
      p.not_before = now + backoff;
      metrics_.on_retry();
      queue_.push_back(std::move(p));
      readmitted = true;
    }
  }
  if (readmitted) cv_work_.notify_one();
}

void QueryServer::maybe_compact() {
  if (config_.compact_at_fill == 0) return;
  if (compacting_.load(std::memory_order_acquire)) return;
  // Reap the previous run so at most one joinable thread is outstanding.
  if (compactor_.joinable()) compactor_.join();
  if (engine_->max_delta_fill() < config_.compact_at_fill) return;
  compacting_.store(true, std::memory_order_release);
  compactor_ = std::thread([this] {
    try {
      (void)engine_->compact();
    } catch (const std::exception& e) {
      ANNSIM_ERROR("serve: background compaction failed: " << e.what());
    }
    compacting_.store(false, std::memory_order_release);
  });
}

void QueryServer::stop() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  if (compactor_.joinable()) compactor_.join();
  // The scheduler drains everything admitted before it exits; this sweep only
  // catches a submit that raced with stop().
  std::deque<Pending> leftover;
  {
    std::lock_guard lk(mu_);
    leftover.swap(queue_);
  }
  for (auto& p : leftover) {
    metrics_.on_fail();
    QueryResponse resp;
    resp.status = QueryStatus::kShutdown;
    p.promise.set_value(std::move(resp));
  }
}

}  // namespace annsim::serve
