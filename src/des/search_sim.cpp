#include "annsim/des/search_sim.hpp"

#include <algorithm>
#include <deque>

#include "annsim/common/error.hpp"
#include "annsim/des/event_queue.hpp"

namespace annsim::des {

namespace {

/// Work for one core: a search job, which any core of its node may serve,
/// or one of an owner's duties, pinned to the owner's core.
enum class TaskKind : std::uint8_t { kJob, kRoute, kMerge };

struct Task {
  TaskKind kind = TaskKind::kJob;
  double duration = 0.0;
  std::size_t query = 0;
};

struct NodeState {
  std::vector<std::size_t> idle_cores;  ///< core ids (global) currently free
  std::deque<Task> backlog;
};

/// §IV's "hash function" assigning queries to owners.
std::size_t owner_of(std::size_t query, std::size_t n_cores) {
  return (query * 0x9e3779b97f4a7c15ULL >> 32) % n_cores;
}

}  // namespace

SearchSimResult simulate_search(const SearchSimConfig& config,
                                const std::vector<std::vector<PartitionId>>& plans,
                                const std::vector<double>& partition_cost) {
  const std::size_t P = config.n_cores;
  ANNSIM_CHECK(P >= 1);
  ANNSIM_CHECK(config.replication >= 1 && config.replication <= P);
  ANNSIM_CHECK_MSG(!config.multiple_owner || config.replication == 1,
                   "the multiple-owner strategy cannot use workgroup "
                   "replication (got replication "
                       << config.replication << ")");
  ANNSIM_CHECK(partition_cost.size() >= P);
  const bool owners = config.multiple_owner;

  const auto& machine = config.machine;
  const auto& mp = machine.params();
  const std::size_t n_nodes = machine.nodes_for_cores(P);
  const auto node_of = [&](std::size_t core) {
    return config.cyclic_rank_mapping ? core % n_nodes
                                      : machine.node_of_core(core);
  };

  // The master occupies its own node (node index n_nodes in "node space"),
  // so master<->worker traffic is inter-node, as on the real system.
  const double query_bytes = double(config.dim) * 4.0 + 32.0;
  const double result_bytes = double(config.k) * 16.0 + 16.0;
  const double q_msg_wire =
      mp.inter_node_latency + query_bytes / mp.inter_node_bandwidth;
  const double r_msg_wire =
      mp.inter_node_latency + result_bytes / mp.inter_node_bandwidth;
  const double rma_wire = machine.rma_seconds(std::size_t(result_bytes));
  // Owner <-> worker hops stay inside a node when both cores share one.
  const auto hop = [&](double bytes, bool same_node) {
    return same_node
               ? mp.intra_node_latency + bytes / mp.intra_node_bandwidth
               : mp.inter_node_latency + bytes / mp.inter_node_bandwidth;
  };
  const double ovh = mp.message_cpu_overhead;

  SearchSimResult res;
  res.jobs_per_core.assign(P, 0);
  res.busy_per_core.assign(P, 0.0);

  // ---- master timeline: route + isend per job (Algorithm 3/5), or in
  // owner mode one isend per query, to its owner.
  struct Dispatch {
    double arrival;
    std::size_t target;  ///< the job's node, or the owner's core
    Task task;
  };
  std::vector<Dispatch> dispatches;
  std::vector<std::uint32_t> next(P, 0);  // workgroup round-robin pointers
  double t_master = 0.0;
  double wire_total = 0.0;

  res.query_latency.assign(plans.size(), 0.0);
  for (std::size_t q = 0; q < plans.size(); ++q) {
    if (owners) {
      t_master += ovh;
      dispatches.push_back(
          Dispatch{t_master + q_msg_wire, owner_of(q, P),
                   Task{TaskKind::kRoute, config.route_seconds, q}});
      wire_total += q_msg_wire;
      continue;
    }
    t_master += config.route_seconds;
    for (PartitionId d : plans[q]) {
      ANNSIM_CHECK(d < P);
      const std::size_t member = (d + next[d]) % P;
      next[d] = (next[d] + 1) % std::uint32_t(config.replication);
      t_master += ovh;
      dispatches.push_back(Dispatch{t_master + q_msg_wire, node_of(member),
                                    Task{TaskKind::kJob, partition_cost[d], q}});
      wire_total += q_msg_wire;
      ++res.total_jobs;
    }
  }
  const double dispatch_end = t_master;

  // ---- event-driven node service.
  EventQueue eq;
  std::vector<NodeState> nodes(n_nodes);
  for (std::size_t c = 0; c < P; ++c) {
    nodes[node_of(c)].idle_cores.push_back(c);
  }
  std::vector<std::deque<Task>> pinned(owners ? P : 0);  // owner duties
  std::vector<std::size_t> merges_left(owners ? plans.size() : 0);

  double master_free = dispatch_end;  // two-sided merging starts after dispatch
  double master_merge_busy = 0.0;
  double last_result = dispatch_end;
  double worker_comm_cpu = 0.0;
  double owner_comm_cpu = 0.0;  // owners' job isends, merges, answer sends

  // The master receives a result (two-sided) or an owner's answer: a
  // serial cost on the master once the message has arrived.
  const auto master_receives = [&](std::size_t query, double wire,
                                   double cost) {
    const double arrival = eq.now() + wire;
    wire_total += wire;
    master_free = std::max(master_free, arrival) + cost;
    master_merge_busy += cost;
    last_result = std::max(last_result, master_free);
    res.query_latency[query] = std::max(res.query_latency[query], master_free);
  };

  // start/submit are mutually recursive through the event queue.
  std::function<void(std::size_t, std::size_t, Task)> start;
  const auto submit_job = [&](std::size_t node, Task task) {
    NodeState& ns = nodes[node];
    if (!ns.idle_cores.empty()) {
      const std::size_t core = ns.idle_cores.back();
      ns.idle_cores.pop_back();
      start(node, core, task);
    } else {
      ns.backlog.push_back(task);
    }
  };
  const auto submit_duty = [&](std::size_t core, Task task) {
    auto& idle = nodes[node_of(core)].idle_cores;
    const auto it = std::find(idle.begin(), idle.end(), core);
    if (it == idle.end()) {
      pinned[core].push_back(task);
      return;
    }
    idle.erase(it);
    start(node_of(core), core, task);
  };
  // A freed core takes its own owner duties first, then the node backlog.
  const auto serve_next = [&](std::size_t node, std::size_t core) {
    std::deque<Task>& queue =
        owners && !pinned[core].empty() ? pinned[core] : nodes[node].backlog;
    if (queue.empty()) {
      nodes[node].idle_cores.push_back(core);
      return;
    }
    const Task task = queue.front();
    queue.pop_front();
    start(node, core, task);
  };
  // A job's result goes to the query's owner, into the master's window, or
  // to the master's two-sided merge.
  const auto return_result = [&](std::size_t node, std::size_t q) {
    if (owners) {
      const std::size_t owner = owner_of(q, P);
      const double wire = hop(result_bytes, node_of(owner) == node);
      wire_total += wire;
      eq.schedule_in(wire, [&, owner, q] {
        submit_duty(owner, Task{TaskKind::kMerge, config.merge_seconds, q});
      });
    } else if (config.one_sided) {
      const double done = eq.now() + rma_wire;
      wire_total += rma_wire;
      last_result = std::max(last_result, done);
      res.query_latency[q] = std::max(res.query_latency[q], done);
    } else {
      master_receives(q, r_msg_wire, config.merge_seconds);
    }
  };

  start = [&](std::size_t node, std::size_t core, Task task) {
    const std::size_t q = task.query;
    double busy = task.duration;
    bool answer = false;  // the task ends by sending q's answer to the master
    if (task.kind == TaskKind::kJob) {
      ++res.jobs_per_core[core];
      res.compute_seconds += task.duration;
      worker_comm_cpu += ovh;
      busy += ovh;  // the result's send
    } else if (task.kind == TaskKind::kRoute) {
      // Route, then one isend per job, each leaving as it is posted.
      for (PartitionId d : plans[q]) {
        ANNSIM_CHECK(d < P);
        busy += ovh;
        const double wire = hop(query_bytes, node_of(d) == node);
        wire_total += wire;
        ++res.total_jobs;
        eq.schedule_in(busy + wire, [&, d, q] {
          submit_job(node_of(d), Task{TaskKind::kJob, partition_cost[d], q});
        });
      }
      merges_left[q] = plans[q].size();
      answer = plans[q].empty();
    } else {
      answer = --merges_left[q] == 0;
    }
    if (answer) busy += ovh;
    if (task.kind != TaskKind::kJob) {
      owner_comm_cpu +=
          busy - (task.kind == TaskKind::kRoute ? task.duration : 0.0);
    }
    res.busy_per_core[core] += busy;
    eq.schedule_in(busy, [&, node, core, q, kind = task.kind, answer] {
      if (kind == TaskKind::kJob) return_result(node, q);
      if (answer) master_receives(q, r_msg_wire, ovh);
      serve_next(node, core);
    });
  };

  for (const auto& d : dispatches) {
    eq.schedule(d.arrival, [&, d] {
      if (owners) {
        submit_duty(d.target, d.task);
      } else {
        submit_job(d.target, d.task);
      }
    });
  }
  eq.run();

  // ---- one-sided mode: the master reads its window once everyone is done
  // (constant small cost per query slot).
  double master_read = 0.0;
  if (config.one_sided && !owners) {
    master_read = double(plans.size()) * config.merge_seconds * 0.5;
    last_result += master_read;
  }

  res.makespan_seconds = std::max(last_result, dispatch_end);
  const double route_total = double(plans.size()) * config.route_seconds;
  // The master's own sends: one per job, or one per query to its owner.
  const double dispatch_cpu =
      double(owners ? plans.size() : res.total_jobs) * ovh;
  res.master_busy_seconds = (owners ? 0.0 : route_total) + dispatch_cpu +
                            master_merge_busy + master_read;
  res.comm_cpu_seconds = dispatch_cpu + worker_comm_cpu + owner_comm_cpu +
                         master_merge_busy + master_read;
  res.wire_seconds = wire_total;

  // ---- Fig 5 breakdown over (P+1) cores x makespan.
  const double total_core_seconds = double(P + 1) * res.makespan_seconds;
  const double computation = res.compute_seconds + route_total;
  res.computation_fraction = computation / total_core_seconds;
  res.communication_fraction = res.comm_cpu_seconds / total_core_seconds;
  res.idle_fraction =
      std::max(0.0, 1.0 - res.computation_fraction - res.communication_fraction);
  return res;
}

}  // namespace annsim::des
