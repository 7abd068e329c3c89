#pragma once
/// \file scenario.hpp
/// \brief Engine scenarios under a controlled schedule, with durability and
///        consistency oracles (the annsim::explore test harness).
///
/// One scenario = build a small engine free-running, run a perturbed op mix
/// (writes / queries / compaction / a crash) with every runtime under the
/// schedule controller, then disarm and interrogate the survivors:
///
///  * durability  — every row the engine acked is found after heal(); every
///    acked delete stays dead (no tombstone resurrection);
///  * WAL consistency — all replicas of one logical row logged the same LSN,
///    a row's delete LSN is above its insert LSN, and each log's synced
///    watermark covers everything it holds;
///  * view/coverage — after heal() no partition is under-replicated and the
///    fault-free query plan is fully covered;
///  * read stability (query mix) — controlled top-k is bit-identical to the
///    free-running fault-free baseline;
///  * usage cleanliness — annsim::check stays clean across every runtime.
///
/// Scenarios are schedule-deterministic by construction (seeded datasets,
/// single-thread worker teams, no wall-clock waits), which is what lets
/// DfsDriver enumerate them exhaustively and replay tokens reproduce a
/// failure byte for byte.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "annsim/explore/explore.hpp"

namespace annsim::explore {

/// Which op mix the controlled section runs.
enum class Mix {
  kWrite,    ///< two insert rounds + a delete round
  kQuery,    ///< one query stream, the queries through one recycled slot
             ///< (compared against a free-running batch baseline)
  kCompact,  ///< an insert round, then compact()
  kHeal,     ///< insert rounds with a real mid-round kill, then heal()
  kMixed,    ///< insert + search + delete + compact
};

[[nodiscard]] const char* mix_name(Mix mix);
[[nodiscard]] std::optional<Mix> parse_mix(const std::string& name);

struct ScenarioConfig {
  std::size_t workers = 2;
  std::size_t replication = 2;
  Mix mix = Mix::kWrite;
  /// Dataset/engine seed (not the schedule seed — that lives in the strategy).
  std::uint64_t seed = 1;
  std::size_t base_rows = 48;
  std::size_t write_rows = 3;
  std::size_t queries = 2;
  std::size_t k = 3;
  /// Run every engine runtime under annsim::check and require a clean report.
  bool mpi_check = true;
  /// Arm the fault injector with a never-firing kill so the write plane takes
  /// its recv_for paths — timeouts become schedulable choice points. The heal
  /// mix always arms a real kill on the last worker regardless.
  bool arm_faults = true;
  /// Scratch root for this run's WAL + checkpoint trees. Wiped and recreated
  /// on entry so re-executions (DFS) start from identical disk state.
  std::string scratch_dir;
};

struct ScenarioResult {
  /// Schedule trace plus the first failure (schedule deadlock, engine throw,
  /// or oracle violation — `outcome.error` explains which).
  RunOutcome outcome;
  /// Oracle assertions that failed (all folded into outcome.error too).
  std::size_t oracle_failures = 0;

  [[nodiscard]] bool ok() const { return outcome.ok(); }
};

/// Run one controlled scenario. The controller must be disarmed on entry;
/// it is armed for the perturbed section only (build and oracles free-run)
/// and disarmed again before returning, even on failure.
ScenarioResult run_scenario(const ScenarioConfig& cfg,
                            const std::shared_ptr<ScheduleController>& ctrl,
                            std::shared_ptr<ScheduleStrategy> strategy,
                            ScheduleOptions opts = {});

}  // namespace annsim::explore
