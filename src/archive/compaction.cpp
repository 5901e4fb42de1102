#include "archive/compaction.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace mlio::archive {

namespace {

/// One level above `level`, clamped instead of wrapping on a hostile level —
/// the plan stays executable and the merged partition simply stops climbing.
std::uint32_t level_above(std::uint32_t level) {
  return level == std::numeric_limits<std::uint32_t>::max() ? level : level + 1;
}

}  // namespace

std::vector<CompactionPlan> plan_by_size(const Manifest& m, const SizePolicy& policy) {
  const std::vector<PartitionInfo>& parts = m.partitions;
  std::vector<CompactionPlan> runs;
  std::size_t i = 0;
  while (i < parts.size()) {
    std::size_t j = i;
    while (j < parts.size() && parts[j].log_count < policy.max_logs) ++j;
    if (j - i < 2) {
      ++i;
      continue;
    }
    std::uint32_t level = 0;
    for (std::size_t k = i; k < j; ++k) level = std::max(level, parts[k].level);
    runs.push_back(CompactionPlan{i, j - i, level_above(level)});
    i = j;
  }
  return runs;
}

std::vector<CompactionPlan> plan_leveled(const Manifest& m, const LeveledPolicy& policy) {
  if (policy.fanout < 2) {
    throw util::ConfigError("leveled policy: fanout must be >= 2");
  }
  const std::vector<PartitionInfo>& parts = m.partitions;
  std::vector<CompactionPlan> best;
  std::size_t i = 0;
  while (i < parts.size()) {
    std::size_t j = i;
    while (j < parts.size() && parts[j].level == parts[i].level) ++j;
    if (j - i >= policy.fanout && (best.empty() || parts[i].level < parts[best[0].first].level)) {
      best.assign(1, CompactionPlan{i, policy.fanout, level_above(parts[i].level)});
    }
    i = j;
  }
  return best;
}

}  // namespace mlio::archive
