#pragma once
/// \file vantage.hpp
/// \brief The vantage-point selection heuristic of Yianilos (SODA'93), shared
/// by the sequential PartitionTree builder (router and exact local tree) and
/// the *distributed* construction (Algorithm 1 of the paper runs this same
/// routine per rank).

#include <cstddef>
#include <span>
#include <vector>

#include "annsim/common/rng.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::vptree {

/// Score of a candidate vantage point v over an evaluation set E:
/// the second moment of {d(v, e) : e in E} about the median of those
/// distances. A larger spread means better search pruning (§III-B).
[[nodiscard]] double vantage_spread(const float* candidate,
                                    const data::Dataset& data,
                                    std::span<const std::size_t> eval_rows,
                                    const simd::DistanceComputer& dist);

/// SelectVantagePointSerial(D', D) from the paper: evaluate each candidate
/// row against the evaluation rows and return the best candidate row index
/// (an index into `data`). Both spans must be non-empty.
[[nodiscard]] std::size_t select_vantage_point(
    const data::Dataset& data, std::span<const std::size_t> candidate_rows,
    std::span<const std::size_t> eval_rows, const simd::DistanceComputer& dist);

/// Convenience: sample `n_candidates` candidates and `n_eval` evaluation rows
/// from `rows` with `rng` and run the heuristic. Returns a row from `rows`.
[[nodiscard]] std::size_t select_vantage_point_sampled(
    const data::Dataset& data, std::span<const std::size_t> rows,
    std::size_t n_candidates, std::size_t n_eval,
    const simd::DistanceComputer& dist, Rng& rng);

}  // namespace annsim::vptree
