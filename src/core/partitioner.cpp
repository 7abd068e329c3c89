#include "annsim/core/partitioner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "annsim/common/error.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/core/dataset_transfer.hpp"
#include "annsim/vptree/vantage.hpp"

namespace annsim::core {

namespace {

/// One step of a rank's root-to-leaf construction path.
struct PathStep {
  std::vector<float> vp;
  float mu = 0.f;
  bool went_left = false;
};

/// Algorithm 1: distributed vantage-point selection. Every rank proposes its
/// best local candidate; the group root re-scores the proposals against its
/// own local sample and broadcasts the winner.
std::vector<float> select_vantage_distributed(mpi::Comm& comm,
                                              const data::Dataset& local,
                                              const PartitionerConfig& config,
                                              simd::Metric metric, Rng& rng) {
  const simd::DistanceComputer dist(metric, local.dim());

  std::vector<float> my_candidate(local.dim(), 0.f);
  if (!local.empty()) {
    std::vector<std::size_t> rows(local.size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    const std::size_t best = vptree::select_vantage_point_sampled(
        local, rows, config.vantage_candidates, config.vantage_sample, dist, rng);
    const float* row = local.row(best);
    my_candidate.assign(row, row + local.dim());
  }

  // Each rank sends (has_candidate, vector) to the group root.
  BinaryWriter w;
  w.write(std::uint8_t(local.empty() ? 0 : 1));
  w.write_vector(my_candidate);
  auto gathered = comm.gather(w.bytes(), 0);

  std::vector<float> winner(local.dim(), 0.f);
  if (comm.rank() == 0) {
    std::vector<std::vector<float>> candidates;
    for (const auto& buf : gathered) {
      BinaryReader r(buf);
      const auto has = r.read<std::uint8_t>();
      auto vec = r.read_vector<float>();
      if (has != 0) candidates.push_back(std::move(vec));
    }
    ANNSIM_CHECK_MSG(!candidates.empty(), "no vantage candidates proposed");

    // Evaluation rows: a sample of the root's local data (the paper's
    // assumption: each local subset is representative of the global
    // distribution).
    std::size_t best_idx = 0;
    if (!local.empty() && candidates.size() > 1) {
      std::vector<std::size_t> eval;
      const std::size_t n_eval = std::min(config.vantage_sample, local.size());
      eval.reserve(n_eval);
      for (std::size_t i = 0; i < n_eval; ++i) {
        eval.push_back(rng.uniform_below(local.size()));
      }
      double best_spread = -1.0;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const double spread =
            vptree::vantage_spread(candidates[c].data(), local, eval, dist);
        if (spread > best_spread) {
          best_spread = spread;
          best_idx = c;
        }
      }
    }
    winner = candidates[best_idx];
  }

  auto winner_bytes = comm.bcast(
      std::as_bytes(std::span<const float>(winner)), 0);
  std::vector<float> out(local.dim());
  std::memcpy(out.data(), winner_bytes.data(), out.size() * sizeof(float));
  return out;
}

}  // namespace

std::uint64_t exscan_u64(mpi::Comm& comm, std::uint64_t value,
                         std::uint64_t* total_out) {
  auto all = comm.gather_values(value, 0);
  std::vector<std::vector<std::byte>> payloads;
  std::uint64_t total = 0;
  if (comm.rank() == 0) {
    payloads.resize(std::size_t(comm.size()));
    std::uint64_t prefix = 0;
    for (int i = 0; i < comm.size(); ++i) {
      BinaryWriter w;
      w.write(prefix);
      payloads[std::size_t(i)] = w.take();
      prefix += all[std::size_t(i)];
    }
    total = prefix;
  }
  auto mine = comm.scatter(payloads, 0);
  BinaryReader r(mine);
  const auto my_prefix = r.read<std::uint64_t>();
  if (total_out != nullptr) {
    *total_out = comm.bcast_value(total, 0);
  }
  return my_prefix;
}

float distributed_median(mpi::Comm& comm, std::vector<float> local_values) {
  std::uint64_t total = 0;
  (void)exscan_u64(comm, local_values.size(), &total);
  ANNSIM_CHECK_MSG(total > 0, "distributed_median over an empty set");
  std::uint64_t k = (total - 1) / 2;  // lower median, 0-indexed

  std::vector<float> remaining = std::move(local_values);
  for (;;) {
    // Pivot: median of the per-rank medians (ranks with no data abstain).
    float local_med = 0.f;
    std::uint8_t has = 0;
    if (!remaining.empty()) {
      auto mid = remaining.begin() + std::ptrdiff_t(remaining.size() / 2);
      std::nth_element(remaining.begin(), mid, remaining.end());
      local_med = *mid;
      has = 1;
    }
    struct MedMsg {
      float med;
      std::uint8_t has;
    };
    auto msgs = comm.gather_values(MedMsg{local_med, has}, 0);
    float pivot = 0.f;
    if (comm.rank() == 0) {
      std::vector<float> meds;
      for (const auto& m : msgs) {
        if (m.has != 0) meds.push_back(m.med);
      }
      ANNSIM_CHECK(!meds.empty());
      auto mid = meds.begin() + std::ptrdiff_t(meds.size() / 2);
      std::nth_element(meds.begin(), mid, meds.end());
      pivot = *mid;
    }
    pivot = comm.bcast_value(pivot, 0);

    std::uint64_t less = 0, equal = 0;
    for (float v : remaining) {
      if (v < pivot) ++less;
      else if (v == pivot) ++equal;
    }
    const auto global_less =
        comm.allreduce(less, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const auto global_equal =
        comm.allreduce(equal, [](std::uint64_t a, std::uint64_t b) { return a + b; });

    if (k < global_less) {
      std::erase_if(remaining, [&](float v) { return v >= pivot; });
    } else if (k < global_less + global_equal) {
      return pivot;
    } else {
      std::erase_if(remaining, [&](float v) { return v <= pivot; });
      k -= global_less + global_equal;
    }
  }
}

namespace {

/// Serialize a rank's construction path for the gather at rank 0.
std::vector<std::byte> pack_path(const std::vector<PathStep>& path,
                                 PartitionId leaf) {
  BinaryWriter w;
  w.write(std::uint32_t(path.size()));
  for (const auto& s : path) {
    w.write(std::uint8_t(s.went_left ? 1 : 0));
    w.write(s.mu);
    w.write_vector(s.vp);
  }
  w.write(leaf);
  return w.take();
}

struct DecodedPath {
  std::vector<PathStep> steps;
  PartitionId leaf = kInvalidPartition;
};

DecodedPath unpack_path(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  DecodedPath out;
  const auto n = r.read<std::uint32_t>();
  out.steps.resize(n);
  for (auto& s : out.steps) {
    s.went_left = r.read<std::uint8_t>() != 0;
    s.mu = r.read<float>();
    s.vp = r.read_vector<float>();
  }
  out.leaf = r.read<PartitionId>();
  return out;
}

/// Assemble the router tree from all ranks' paths (rank 0 only).
std::int32_t assemble(std::vector<vptree::PartitionTree::Node>& nodes,
                      std::vector<const DecodedPath*> paths, std::size_t depth) {
  ANNSIM_CHECK(!paths.empty());
  const std::int32_t id = std::int32_t(nodes.size());
  nodes.emplace_back();

  if (paths.size() == 1 && paths[0]->steps.size() == depth) {
    nodes[id].leaf = paths[0]->leaf;
    return id;
  }

  std::vector<const DecodedPath*> left, right;
  for (const auto* p : paths) {
    ANNSIM_CHECK_MSG(p->steps.size() > depth, "inconsistent construction paths");
    (p->steps[depth].went_left ? left : right).push_back(p);
  }
  ANNSIM_CHECK_MSG(!left.empty() && !right.empty(),
                   "construction paths missing a subtree");

  nodes[id].vp = left[0]->steps[depth].vp;
  nodes[id].mu = left[0]->steps[depth].mu;
  const std::int32_t l = assemble(nodes, std::move(left), depth + 1);
  const std::int32_t r = assemble(nodes, std::move(right), depth + 1);
  nodes[id].left = l;
  nodes[id].right = r;
  return id;
}

}  // namespace

PartitionerResult build_distributed_vp_tree(mpi::Comm& comm,
                                            data::Dataset initial,
                                            const PartitionerConfig& config,
                                            simd::Metric metric) {
  ANNSIM_CHECK_MSG(std::has_single_bit(std::size_t(comm.size())),
                   "worker count must be a power of two");
  ANNSIM_CHECK_MSG(simd::is_true_metric(metric),
                   "VP partitioning requires a true metric");
  WallTimer timer;

  const std::size_t dim = initial.dim();
  const int orig_rank = comm.rank();
  Rng rng = Rng(config.seed).split(std::uint64_t(orig_rank));

  data::Dataset local = std::move(initial);
  std::vector<PathStep> path;

  // Algorithm 2: recurse, halving the rank group each level.
  mpi::Comm group = comm;  // copies are views onto the same communicator
  while (group.size() > 1) {
    const simd::DistanceComputer dist(metric, dim);

    // --- Algorithm 1: distributed vantage-point selection.
    std::vector<float> vp =
        select_vantage_distributed(group, local, config, metric, rng);

    // --- distances to the vantage point; distributed median -> mu.
    std::vector<float> dists(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      dists[i] = dist(vp.data(), local.row(i));
    }
    const float mu = distributed_median(group, dists);

    // --- split rows: D_L = inside the sphere; ties on the boundary are
    // dealt globally so the two sides stay equally sized.
    std::vector<std::size_t> left_rows, right_rows, tie_rows;
    for (std::size_t i = 0; i < local.size(); ++i) {
      if (dists[i] < mu) left_rows.push_back(i);
      else if (dists[i] == mu) tie_rows.push_back(i);
      else right_rows.push_back(i);
    }
    std::uint64_t total_less = 0;
    (void)exscan_u64(group, left_rows.size(), &total_less);
    std::uint64_t total_all = 0;
    const std::uint64_t tie_prefix =
        exscan_u64(group, tie_rows.size(), &total_all);
    std::uint64_t grand_total = 0;
    (void)exscan_u64(group, local.size(), &grand_total);
    const std::uint64_t want_left = grand_total / 2;
    const std::uint64_t ties_to_left =
        want_left > total_less ? want_left - total_less : 0;
    for (std::size_t t = 0; t < tie_rows.size(); ++t) {
      if (tie_prefix + t < ties_to_left) left_rows.push_back(tie_rows[t]);
      else right_rows.push_back(tie_rows[t]);
    }

    // --- shuffle: deal left rows evenly over the first half of the group,
    // right rows over the second half (MPI_Alltoallv).
    const std::size_t h = std::size_t(group.size()) / 2;
    const std::size_t rh = std::size_t(group.size()) - h;

    std::uint64_t total_left = 0, total_right = 0;
    const std::uint64_t off_left = exscan_u64(group, left_rows.size(), &total_left);
    const std::uint64_t off_right =
        exscan_u64(group, right_rows.size(), &total_right);

    const std::uint64_t chunk_left =
        std::max<std::uint64_t>(1, (total_left + h - 1) / h);
    const std::uint64_t chunk_right =
        std::max<std::uint64_t>(1, (total_right + rh - 1) / rh);

    std::vector<std::vector<std::size_t>> rows_for_dest(std::size_t(group.size()));
    for (std::size_t i = 0; i < left_rows.size(); ++i) {
      const std::uint64_t g = off_left + i;
      const std::size_t dest = std::min(std::size_t(g / chunk_left), h - 1);
      rows_for_dest[dest].push_back(left_rows[i]);
    }
    for (std::size_t i = 0; i < right_rows.size(); ++i) {
      const std::uint64_t g = off_right + i;
      const std::size_t dest = h + std::min(std::size_t(g / chunk_right), rh - 1);
      rows_for_dest[dest].push_back(right_rows[i]);
    }

    std::vector<std::vector<std::byte>> send_bufs(std::size_t(group.size()));
    for (std::size_t d = 0; d < send_bufs.size(); ++d) {
      send_bufs[d] = pack_dataset_rows(local, rows_for_dest[d]);
    }
    auto recv_bufs = group.alltoallv(send_bufs);
    local = unpack_datasets(recv_bufs, dim);

    // --- record the path step and descend into my half.
    const bool went_left = std::size_t(group.rank()) < h;
    path.push_back(PathStep{std::move(vp), mu, went_left});
    group = group.split(went_left ? 0 : 1);
  }

  // --- assemble the router at rank 0 from everyone's paths.
  PartitionerResult result;
  result.partition_id = PartitionId(orig_rank);
  auto gathered = comm.gather(pack_path(path, result.partition_id), 0);
  if (orig_rank == 0) {
    std::vector<DecodedPath> decoded;
    decoded.reserve(gathered.size());
    for (const auto& buf : gathered) decoded.push_back(unpack_path(buf));
    std::vector<const DecodedPath*> ptrs;
    ptrs.reserve(decoded.size());
    for (const auto& d : decoded) ptrs.push_back(&d);

    std::vector<vptree::PartitionTree::Node> nodes;
    (void)assemble(nodes, std::move(ptrs), 0);

    vptree::PartitionTreeParams tree_params;
    tree_params.target_partitions = std::size_t(comm.size());
    tree_params.vantage_candidates = config.vantage_candidates;
    tree_params.vantage_sample = config.vantage_sample;
    tree_params.seed = config.seed;
    tree_params.metric = metric;
    vptree::PartitionTree tree(std::move(nodes), std::size_t(comm.size()),
                               dim, tree_params);
    BinaryWriter w;
    tree.serialize(w);
    result.serialized_tree = w.take();
  }

  result.partition = std::move(local);
  result.build_seconds = timer.seconds();
  return result;
}

}  // namespace annsim::core
