#include <map>

#include "annsim/common/error.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/core/protocol.hpp"

namespace annsim::core {

// Multiple-owner strategy (§IV): the VP tree is shared by all workers; each
// query's owner is determined by a hash; owners route and dispatch their own
// queries, merge the partial results, and forward the final answers to the
// master. The paper found a small win over master-worker that deteriorates at
// scale because this strategy cannot be combined with workgroup replication.

namespace {

/// The paper's "hash function" assigning queries to owners.
std::size_t owner_of(std::size_t query_id, std::size_t n_workers) {
  return (query_id * 0x9e3779b97f4a7c15ULL >> 32) % n_workers;
}

}  // namespace

void DistributedAnnEngine::master_search_owner(mpi::Comm& world,
                                               const data::Dataset& queries,
                                               std::size_t k, std::size_t ef,
                                               data::KnnResults& results,
                                               SearchStats& stats,
                                               const QueryDoneFn& on_query_done) {
  const std::size_t P = config_.n_workers;
  const std::size_t nq = queries.size();
  const BatchBounds bounds{nq, P, queries.dim()};
  PhaseTimer dispatch_t, merge_t;

  // --- scatter query batches to owners.
  std::vector<std::vector<std::uint32_t>> batch_ids(P);
  for (std::size_t q = 0; q < nq; ++q) {
    batch_ids[owner_of(q, P)].push_back(std::uint32_t(q));
  }
  for (std::size_t w = 0; w < P; ++w) {
    BinaryWriter wtr;
    wtr.write(std::uint32_t(k));
    wtr.write(std::uint32_t(ef));
    wtr.write(std::uint64_t(batch_ids[w].size()));
    for (std::uint32_t qid : batch_ids[w]) {
      wtr.write(qid);
      const float* qv = queries.row(qid);
      wtr.write_span(std::span<const float>(qv, queries.dim()));
    }
    ScopedPhase p(dispatch_t);
    (void)world.isend(int(w) + 1, kTagOwnerBatch, wtr.bytes());
  }

  // --- collect the merged per-query answers from the owners. This mode has
  // no failure detection, so every answer covers its whole plan.
  stats.coverage.assign(nq, {});
  for (std::size_t i = 0; i < nq; ++i) {
    mpi::Message m = world.recv(mpi::kAnySource, kTagResult);
    ScopedPhase p(merge_t);
    LocalResult r = decode_owner_answer(m.payload, bounds);
    const QueryCoverage cov{r.partition, r.partition};  // |F(q)| merged
    const std::size_t q = r.seq;  // an owner answer names its batch index
    results[q] = std::move(r.neighbors);
    stats.coverage[q] = cov;
    if (on_query_done) on_query_done(q, results[q], cov);
  }

  // --- termination: an owner answers only once every job of its query has
  // run, so with all nq answers in no job is left anywhere, and EOQ ends
  // the job loops exactly as in master-worker mode.
  for (std::size_t w = 0; w < P; ++w) {
    ScopedPhase p(dispatch_t);
    (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
  }
  (void)collect_done_notices(world, std::vector<char>(P, 1), stats);

  std::uint64_t total_jobs = 0;
  for (const std::uint64_t n : stats.jobs_per_worker) total_jobs += n;
  stats.master_dispatch_seconds = dispatch_t.total_seconds();
  stats.master_merge_seconds = merge_t.total_seconds();
  stats.total_jobs = total_jobs;
  stats.mean_partitions_per_query = nq ? double(total_jobs) / double(nq) : 0.0;
}

void DistributedAnnEngine::worker_search_owner(mpi::Comm& world,
                                               std::size_t k,
                                               const BatchBounds& bounds) {
  const std::size_t P = config_.n_workers;
  const std::size_t me = std::size_t(world.rank()) - 1;
  const auto& tree = *router_;  // shared VP tree (replicated in the paper)

  // Owner duties on the rank thread, beside the job loop's team: jobs
  // arrive from any owner and results return to the job's owner.
  PhaseTimer route_t;
  auto owner_duties = [&] {
    mpi::Message batch = world.recv(0, kTagOwnerBatch);
    BinaryReader rd(batch.payload);
    const auto kk = rd.read<std::uint32_t>();
    const auto my_ef = rd.read<std::uint32_t>();
    const auto n_mine = rd.read<std::uint64_t>();
    ANNSIM_CHECK(kk == std::uint32_t(k));

    // Route and dispatch my queries (no replication in this strategy — the
    // paper notes it "does not lend itself to be optimized for load
    // balancing").
    struct Owned {
      TopK acc;
      std::uint32_t fanout = 0;  ///< |F(q)|
    };
    std::map<std::uint64_t, Owned> mine;
    std::uint64_t my_dispatched = 0;
    for (std::uint64_t i = 0; i < n_mine; ++i) {
      // The batch index is the job's seq: one slot per query, never reused.
      // Results come back to this rank, the jobs' sender.
      QueryJob job;
      job.seq = rd.read<std::uint32_t>();
      job.ef = my_ef;
      job.query = rd.read_vector<float>();
      route_t.start();
      auto plan =
          tree.route_topk(job.query.data(), std::min(config_.n_probe, P))
              .partitions;
      route_t.stop();
      job.fanout = std::uint32_t(plan.size());
      mine.emplace(job.seq, Owned{TopK(k), job.fanout});
      for (PartitionId d : plan) {
        job.partition = d;
        (void)world.isend(int(d) + 1, kTagQuery, encode_query_job(job));
        ++my_dispatched;
      }
    }

    // Merge partial results for my queries as they return.
    for (std::uint64_t i = 0; i < my_dispatched; ++i) {
      mpi::Message m = world.recv(mpi::kAnySource, kTagOwnerResult);
      LocalResult r = decode_local_result(m.payload, bounds);
      const auto it = mine.find(r.seq);
      ANNSIM_CHECK_MSG(it != mine.end(), "worker " << me << " does not own query "
                                                    << r.seq);
      it->second.acc.merge(r.neighbors);
    }
    for (auto& [qid, owned] : mine) {
      LocalResult r;
      r.seq = qid;
      r.partition = owned.fanout;
      r.neighbors = owned.acc.take_sorted();
      (void)world.isend(0, kTagResult, encode_local_result(r));
    }
  };

  DoneNotice notice = run_job_loop(world, mpi::kAnySource, kTagOwnerResult,
                                   nullptr, k, bounds, owner_duties);
  notice.route_seconds = route_t.total_seconds();
  BinaryWriter w;
  w.write(notice);
  world.send_reserved(0, kTagDone, w.bytes());
}

}  // namespace annsim::core
