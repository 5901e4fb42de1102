// Compaction planners (DESIGN.md §6).  A plan is a list of runs —
// ascending, non-overlapping ranges of manifest partitions, each collapsing
// into one merged partition at a target level.  Policies only PLAN, as pure
// functions of the manifest; the one executor, Archive::compact(runs),
// carries any plan out.  Both rules place a merged partition one level
// above its highest source, clamped at UINT32_MAX so a hostile level never
// wraps back to 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "archive/manifest.hpp"

namespace mlio::archive {

/// One planned merge: manifest.partitions[first, first + count) collapse
/// into a single partition at target_level.
struct CompactionPlan {
  std::size_t first = 0;
  std::size_t count = 0;
  std::uint32_t target_level = 0;
};

/// Batch rule: merge adjacent partitions below `max_logs` logs (0 merges
/// nothing).
struct SizePolicy {
  std::uint64_t max_logs = 0;
};

/// LSM-style leveled rule for continuous mode: merge when `fanout` adjacent
/// partitions share a level.
struct LeveledPolicy {
  std::uint32_t fanout = 4;  ///< run length that triggers a merge (>= 2)
};

/// Every maximal run of >= 2 adjacent partitions whose log counts are all
/// below `policy.max_logs`, left to right.
std::vector<CompactionPlan> plan_by_size(const Manifest& m, const SizePolicy& policy);

/// The next leveled merge: the leftmost run of >= fanout adjacent
/// same-level partitions, lowest level first; the plan takes the OLDEST
/// `fanout` of the run (time order is preserved — partitions only ever
/// merge with their neighbors).  Streaming appends windows at level 0, so
/// the live partition count stays O(fanout · log_fanout(windows)).  At most
/// one run.  Throws ConfigError on fanout < 2.
std::vector<CompactionPlan> plan_leveled(const Manifest& m, const LeveledPolicy& policy);

}  // namespace mlio::archive
