// Generation-delta differential tests (DESIGN.md §12): drive a service
// through a RANDOMIZED ingest/compact sequence and, at every generation,
// confront the memoized / incrementally-merged answer with the cache-free
// serial replay oracle — fingerprint AND full canonical state bytes (which
// serialize the Table 2 census and the Table 3 access-pattern histograms
// verbatim).  The sequence is chosen so every serving tier is exercised:
// tier-1 merged hits, tier-2 prefix extensions after appends, and the
// full-merge fallback after a compaction invalidates every cached prefix.
//
// The windowed variant streams time windows and compacts them in random
// order, and checks every window span's answer the same way — plus that a
// repeated windowed get is one memo lookup (DESIGN.md §12: the memo is keyed
// by the folded shards' identity, so windowed answers memoize like
// whole-archive ones).
//
// The closed-loop variant runs the same engine under concurrent clients
// with the parallel merge pool on — the file carries the "tsan" label so CI
// replays it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "core/snapshot.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace {

using namespace mlio;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

const std::vector<service::ServiceFrame>& frame_pool() {
  static const std::vector<service::ServiceFrame> pool = service::make_frame_pool(24, 97);
  return pool;
}

void seed_archive(const std::filesystem::path& dir, std::size_t parts) {
  archive::Archive ar = archive::Archive::create(dir);
  const auto& pool = frame_pool();
  const std::size_t per = std::max<std::size_t>(1, pool.size() / 2 / parts);
  for (std::size_t b = 0; b < parts; ++b) {
    archive::Archive::PartitionWriter w = ar.begin_partition();
    for (std::size_t i = b * per; i < (b + 1) * per; ++i) w.append_frame(pool[i].job, pool[i].bytes);
    w.seal();
  }
}

/// Canonical state bytes — equality here is stronger than fingerprint
/// equality (every accumulator byte, reservoir Rng positions included).
std::vector<std::byte> state(const core::Analysis& a) {
  return core::write_snapshot_bytes(a, 0);
}

TEST(GenerationDelta, RandomizedSequenceIsBitIdenticalToSerialReplayEveryGeneration) {
  const std::filesystem::path dir = fresh_dir("mlio_gen_delta");
  seed_archive(dir, 3);

  service::ArchiveService::Options opts;
  opts.merge_threads = 2;  // parallel shard loads + tree merge in the full path
  service::ArchiveService svc(dir, opts);  // merged-result memo on by default
  util::Rng rng = util::Rng::stream(2026, 0x6de1ull);

  std::uint64_t prefix_merges = 0;
  std::uint64_t full_merges = 0;
  std::uint64_t merged_hits = 0;
  std::uint64_t compactions = 0;

  for (int step = 0; step < 24; ++step) {
    // Mutate: mostly appends, occasionally a compaction that rewrites the
    // partition list and invalidates every memoized prefix.
    const std::uint64_t draw = rng.uniform_u64(0, 99);
    bool compacted = false;
    if (draw < 75 || compactions >= 3) {
      const std::uint64_t n = 1 + rng.uniform_u64(0, 2);
      const std::uint64_t lo = rng.uniform_u64(0, frame_pool().size() - n);
      svc.ingest(std::span<const service::ServiceFrame>(
          frame_pool().data() + lo, static_cast<std::size_t>(n)));
    } else {
      compacted = svc.compact(archive::SizePolicy{~0ull}) > 0;
      compactions += compacted ? 1 : 0;
    }

    // First get at the new generation: prefix extension after an append,
    // full merge after a compaction (the cached prefixes are gone).
    const auto first = svc.get(/*keep_analysis=*/true);
    prefix_merges += first.stats.query.prefix_merges;
    full_merges += first.stats.query.full_merges;
    if (compacted) {
      EXPECT_EQ(first.stats.query.full_merges, 1u) << "step " << step;
      EXPECT_EQ(first.stats.query.partitions_reused, 0u) << "step " << step;
    }

    // The oracle: cache-free, snapshot-free, serial replay of the SAME
    // pinned generation.  Full state bytes, not just the digest.
    const core::Analysis replay = svc.replay_serial(first.pin);
    ASSERT_EQ(first.fingerprint, replay.fingerprint()) << "step " << step;
    ASSERT_NE(first.analysis, nullptr);
    ASSERT_EQ(state(*first.analysis), state(replay)) << "step " << step;

    // Second get at the unchanged generation: a tier-1 memo hit serving the
    // very same answer.
    const auto second = svc.get(/*keep_analysis=*/true);
    EXPECT_EQ(second.generation, first.generation);
    EXPECT_EQ(second.stats.query.merged_hits, 1u) << "step " << step;
    EXPECT_EQ(second.fingerprint, first.fingerprint);
    EXPECT_EQ(second.analysis.get(), first.analysis.get());  // shared, not recomputed
    merged_hits += second.stats.query.merged_hits;
  }

  // The sequence must have exercised every serving tier.
  EXPECT_GT(merged_hits, 0u);
  EXPECT_GT(prefix_merges, 0u);
  EXPECT_GT(full_merges, 0u);
  EXPECT_GT(compactions, 0u);

  const service::CacheCounters mc = svc.merged_counters();
  EXPECT_EQ(mc.hits + mc.misses, mc.lookups);
  EXPECT_EQ(mc.insertions, mc.entries + mc.evictions + mc.purged);
  std::filesystem::remove_all(dir);
}

TEST(GenerationDelta, WindowedGetsAreMemoizedAndMatchSerialReplayEveryGeneration) {
  const std::filesystem::path dir = fresh_dir("mlio_gen_delta_windows");
  { archive::Archive::create(dir); }

  service::ArchiveService::Options opts;
  opts.merge_threads = 2;
  opts.stream.window_seconds = 86400;  // about one window per generator day
  service::ArchiveService svc(dir, opts);
  const std::vector<service::ServiceFrame> pool = service::make_frame_pool(60, 41);
  util::Rng rng = util::Rng::stream(2026, 0x3d1full);
  constexpr std::uint64_t kSpans[] = {0, 1, 2, 3, ~0ull};

  std::size_t streamed = 0;
  std::uint64_t generations = 0;
  std::uint64_t prefix_merges = 0;
  std::uint64_t compactions = 0;
  std::uint64_t last_generation = svc.generation();  // empty: nothing to fold yet
  for (int step = 0; step < 200 && streamed < pool.size(); ++step) {
    // Mutate: mostly window appends, sometimes a leveled step or a size-
    // bounded compaction rewriting the partitions the selections walk.
    const std::uint64_t draw = rng.uniform_u64(0, 99);
    if (draw < 70) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_u64(0, 3), pool.size() - streamed);
      svc.stream_append(std::span(pool).subspan(streamed, n));
      streamed += n;
    } else if (draw < 90) {
      compactions += svc.compact_step(archive::LeveledPolicy{2}).has_value() ? 1u : 0u;
    } else {
      compactions += svc.compact(archive::SizePolicy{8 + rng.uniform_u64(0, 16)}) > 0 ? 1u : 0u;
    }
    if (svc.generation() == last_generation) continue;
    last_generation = svc.generation();
    generations += 1;

    archive::Archive reader = archive::Archive::open(dir);
    for (const std::uint64_t n : kSpans) {
      const auto first = svc.get_window(n, /*keep_analysis=*/true);
      ASSERT_EQ(first.generation, last_generation);
      prefix_merges += first.stats.query.prefix_merges;
      const core::Analysis replay = svc.replay_serial_window(first.pin, n);
      ASSERT_EQ(first.fingerprint, replay.fingerprint()) << "step " << step << " n=" << n;
      ASSERT_NE(first.analysis, nullptr);
      ASSERT_EQ(state(*first.analysis), state(replay)) << "step " << step << " n=" << n;

      // Asked again at the unchanged generation: one memo lookup, no shard.
      const auto again = svc.get_window(n);
      EXPECT_EQ(again.generation, first.generation);
      EXPECT_EQ(again.fingerprint, first.fingerprint);
      EXPECT_EQ(again.stats.query.merged_hits, 1u) << "step " << step << " n=" << n;
      EXPECT_EQ(again.stats.query.shards_served(), 0u) << "step " << step << " n=" << n;

      // The archive engine folds the same suffix to the same bits at any
      // thread count.
      archive::QueryOptions q;
      q.last_windows = n;
      q.write_snapshots = false;
      q.threads = 1;
      const archive::QueryResult one = archive::query_archive(reader, q);
      q.threads = 4;
      const archive::QueryResult four = archive::query_archive(reader, q);
      EXPECT_EQ(one.windows.first, first.windows.first) << "step " << step << " n=" << n;
      EXPECT_EQ(one.analysis.fingerprint(), first.fingerprint) << "step " << step << " n=" << n;
      EXPECT_EQ(four.analysis.fingerprint(), first.fingerprint) << "step " << step << " n=" << n;
    }
  }
  svc.stream_flush();

  // The sequence must have exercised every serving tier on real windows.
  EXPECT_EQ(streamed, pool.size());
  EXPECT_GT(generations, 10u);
  EXPECT_GT(svc.stream_stats().windows_published, 8u);
  EXPECT_GT(prefix_merges, 0u);
  EXPECT_GT(compactions, 0u);
  const service::CacheCounters mc = svc.merged_counters();
  EXPECT_EQ(mc.hits + mc.misses, mc.lookups);
  EXPECT_EQ(mc.insertions, mc.entries + mc.evictions + mc.purged);
  std::filesystem::remove_all(dir);
}

TEST(GenerationDelta, ClosedLoopDriverWithMemoAndMergePoolStaysBitIdentical) {
  // The concurrency variant (runs under TSan in CI): concurrent clients
  // against the memoized + prefix-merging + pooled-merge service, every
  // observed generation serially replayed.
  const std::filesystem::path dir = fresh_dir("mlio_gen_delta_loop");
  seed_archive(dir, 3);

  service::ArchiveService::Options opts;
  opts.merge_threads = 2;
  service::ArchiveService svc(dir, opts);

  service::WorkloadConfig cfg;
  cfg.clients = 3;
  cfg.requests_per_client = 16;
  cfg.warmup_per_client = 2;
  cfg.weight_get = 70;
  cfg.weight_ingest = 22;
  cfg.weight_compact = 8;
  cfg.logs_per_ingest = 2;
  cfg.compact_max_logs = ~0ull;
  const service::WorkloadReport rep = service::run_closed_loop(svc, cfg, frame_pool());

  EXPECT_TRUE(rep.ok()) << rep.divergent << " divergent answers";
  EXPECT_EQ(rep.verified_generations, rep.generations_observed);
  EXPECT_GT(svc.merged_counters().hits, 0u);
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
  EXPECT_TRUE(svc.gc_errors().empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
