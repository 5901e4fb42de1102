#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/snapshot.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mlio::service {

namespace {
using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_since(SteadyClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - t0).count());
}

/// Lock a mutex, charging the wait to `stats.queue_wait_ns`.
std::unique_lock<std::mutex> timed_lock(std::mutex& mu, ServiceStats* stats) {
  const auto t0 = SteadyClock::now();
  std::unique_lock<std::mutex> lock(mu);
  if (stats != nullptr) stats->queue_wait_ns += ns_since(t0);
  return lock;
}
}  // namespace

ArchiveService::ArchiveService(const std::filesystem::path& dir, const Options& opts,
                               util::Vfs& vfs)
    : archive_(archive::Archive::open(dir, vfs)),
      opts_(opts),
      ingester_(archive_, opts.stream),
      cache_(opts.cache),
      merged_(opts.merged) {
  published_ = std::make_shared<const archive::Manifest>(archive_.manifest());
  if (opts.merge_threads > 0) pool_ = std::make_unique<util::ThreadPool>(opts.merge_threads);
}

ArchiveService::ArchiveService(const std::filesystem::path& dir)
    : ArchiveService(dir, Options{}) {}

ArchiveService::~ArchiveService() {
  stop_compactor();
  // Any pins still alive here are use-after-free bugs in the caller; the
  // best we can do is drain the GC list unconditionally.  Logs buffered in
  // the open stream window were never promised durable — callers that want
  // them call stream_flush first.
  {
    const std::scoped_lock lock(pin_mu_);
    pinned_generations_.clear();
  }
  sweep_gc();
}

ArchiveService::Pin ArchiveService::pin() {
  const std::scoped_lock lock(pin_mu_);
  Pin p;
  p.manifest_ = published_;
  const auto it = pinned_generations_.insert(published_->generation);
  // The registration token unpins on destruction, from whichever thread
  // drops the last copy, then lets deferred GC advance.
  p.registration_ = std::shared_ptr<void>(nullptr, [this, it](void*) {
    {
      const std::scoped_lock inner(pin_mu_);
      pinned_generations_.erase(it);
    }
    sweep_gc();
  });
  return p;
}

std::uint64_t ArchiveService::generation() const {
  const std::scoped_lock lock(pin_mu_);
  return published_->generation;
}

std::size_t ArchiveService::deferred_gc_pending() const {
  const std::scoped_lock lock(gc_mu_);
  std::size_t n = 0;
  for (const DeferredGc& d : deferred_) n += d.files.size();
  return n;
}

std::vector<std::string> ArchiveService::gc_errors() const {
  const std::scoped_lock lock(gc_mu_);
  return gc_errors_;
}

void ArchiveService::publish_locked() {
  auto next = std::make_shared<const archive::Manifest>(archive_.manifest());
  {
    const std::scoped_lock lock(pin_mu_);
    published_ = next;
  }
  // Drop shard-cache and memo entries naming a shard the new manifest no
  // longer references (compacted away).  Correctness never depends on it: a
  // memo entry is a pure left fold of its identity's immutable shards, so
  // any resident entry is right for whoever matches it — the purge only
  // reclaims bytes early.  Entries still pinned by older generations go too;
  // a pinned reader just rebuilds.
  std::unordered_set<CacheKey, CacheKeyHash> live;
  live.reserve(next->partitions.size());
  for (const archive::PartitionInfo& p : next->partitions) {
    live.insert(CacheKey{p.id, p.data_generation});
  }
  const auto dead = [&](const CacheKey& k) { return !live.contains(k); };
  cache_.purge(dead);
  merged_.purge(dead);
}

void ArchiveService::sweep_gc() {
  std::vector<DeferredGc> ready;
  {
    const std::scoped_lock gc_lock(gc_mu_);
    const std::scoped_lock pin_lock(pin_mu_);
    const std::uint64_t oldest_pin =
        pinned_generations_.empty() ? ~0ull : *pinned_generations_.begin();
    for (auto it = deferred_.begin(); it != deferred_.end();) {
      // A pin taken at generation >= publish_generation sees the merged
      // partitions, never the sources — only OLDER pins block deletion.
      if (oldest_pin >= it->publish_generation) {
        ready.push_back(std::move(*it));
        it = deferred_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const DeferredGc& d : ready) {
    for (const std::filesystem::path& path : d.files) {
      try {
        archive_.vfs().remove(path);
      } catch (const util::IoError& e) {
        const std::scoped_lock lock(gc_mu_);
        gc_errors_.emplace_back(e.what());
        std::fprintf(stderr, "service: deferred gc: %s\n", e.what());
      }
    }
  }
}

bool ArchiveService::refresh_from_disk() {
  const std::scoped_lock writer_lock(writer_mu_);
  try {
    const archive::Manifest fresh =
        archive::read_manifest_bytes(archive_.vfs().read_file(archive_.manifest_path()));
    if (fresh.generation <= archive_.manifest().generation) return false;
  } catch (const util::Error&) {
    return false;
  }
  archive_.reload();
  publish_locked();
  return true;
}

std::shared_ptr<const core::Analysis> ArchiveService::resolve_shard(
    const archive::PartitionInfo& p, ServiceStats& stats) {
  const CacheKey key{p.id, p.data_generation};
  if (std::shared_ptr<const core::Analysis> hit = cache_.get(key)) {
    stats.query.cache_hits += 1;
    return hit;
  }

  const auto t0 = SteadyClock::now();
  std::shared_ptr<const core::Analysis> shard;
  if (std::optional<core::Analysis> snap = archive_.load_snapshot(p)) {
    stats.query.snapshot_hits += 1;
    shard = std::make_shared<const core::Analysis>(*std::move(snap));
  } else {
    // Rescan with per-thread scratch: clients are plain threads, so the
    // reusable decode state lives in thread_local storage instead of a
    // worker-slot array.
    thread_local archive::Archive::ScanScratch scan_scratch;
    thread_local core::AnalyzeScratch analyze_scratch;
    archive::ScanOptions scan_opts;
    scan_opts.mlp_depth = opts_.mlp_depth;
    auto building = std::make_shared<core::Analysis>();
    std::uint64_t logs = 0;
    archive_.scan_partition(
        p,
        [&](const darshan::LogData& log) {
          building->add(log, analyze_scratch);
          logs += 1;
        },
        scan_scratch, scan_opts);
    stats.query.partitions_scanned += 1;
    stats.query.logs_scanned += logs;
    shard = std::move(building);
  }
  const std::uint64_t cost_ns = ns_since(t0);
  cache_.insert(key, shard, core::serialized_analysis_bytes(*shard), cost_ns);
  return shard;
}

std::vector<std::shared_ptr<const core::Analysis>> ArchiveService::resolve_all(
    std::span<const archive::PartitionInfo> parts, ServiceStats& stats) {
  std::vector<std::shared_ptr<const core::Analysis>> shards(parts.size());
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < parts.size(); ++i) shards[i] = resolve_shard(parts[i], stats);
    return shards;
  }
  // Fan the resolutions out over the merge pool, largest segment first (the
  // query engine's schedule): every shard lands in its own slot and the
  // per-worker stats fold after the join, so the shards — and therefore the
  // fold — are bit-identical to the serial loop.
  const std::vector<std::size_t> order = archive::largest_first(parts);
  std::vector<ServiceStats> worker_stats(pool_->thread_count());
  std::exception_ptr first_error;
  std::mutex error_mu;
  pool_->parallel_for_dynamic(
      0, parts.size(), 1, [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        (void)b;
        for (std::uint64_t r = lo; r < hi; ++r) {
          const std::size_t i = order[static_cast<std::size_t>(r)];
          try {
            shards[i] = resolve_shard(parts[i], worker_stats[w]);
          } catch (...) {
            const std::scoped_lock lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
  if (first_error) std::rethrow_exception(first_error);
  for (const ServiceStats& ws : worker_stats) stats.merge(ws);
  return shards;
}

ArchiveService::IngestResult ArchiveService::ingest(std::span<const ServiceFrame> frames,
                                                    ServiceStats* stats) {
  std::unique_lock<std::mutex> lock = timed_lock(writer_mu_, stats);
  if (stats != nullptr) stats->requests += 1;
  archive::Archive::PartitionWriter w = archive_.begin_partition();
  for (const ServiceFrame& f : frames) w.append_frame(f.job, f.bytes);
  IngestResult r;
  r.partition = w.seal();
  publish_locked();
  r.generation = archive_.manifest().generation;
  return r;
}

std::vector<archive::PartitionInfo> ArchiveService::compact_planned(const Planner& plan,
                                                                    ServiceStats* stats) {
  std::vector<archive::PartitionInfo> merged;
  {
    std::unique_lock<std::mutex> lock = timed_lock(writer_mu_, stats);
    if (stats != nullptr) stats->requests += 1;
    std::vector<std::filesystem::path> doomed;
    merged = archive_.compact(plan(archive_.manifest()), &doomed);
    if (!merged.empty()) publish_locked();
    if (!doomed.empty()) {
      const std::scoped_lock gc_lock(gc_mu_);
      deferred_.push_back(DeferredGc{archive_.manifest().generation, std::move(doomed)});
    }
  }
  sweep_gc();
  return merged;
}

std::size_t ArchiveService::compact(const archive::SizePolicy& policy, ServiceStats* stats) {
  std::size_t removed = 0;
  compact_planned(
      [&](const archive::Manifest& m) {
        std::vector<archive::CompactionPlan> runs = archive::plan_by_size(m, policy);
        for (const archive::CompactionPlan& r : runs) removed += r.count - 1;
        return runs;
      },
      stats);
  return removed;
}

std::optional<archive::PartitionInfo> ArchiveService::compact_step(
    const archive::LeveledPolicy& policy, ServiceStats* stats) {
  const std::vector<archive::PartitionInfo> merged = compact_planned(
      [&](const archive::Manifest& m) { return archive::plan_leveled(m, policy); }, stats);
  if (merged.empty()) return std::nullopt;
  return merged.front();
}

// ---- Continuous mode (DESIGN.md §14) --------------------------------------

ArchiveService::StreamResult ArchiveService::stream_append(std::span<const ServiceFrame> frames,
                                                           ServiceStats* stats) {
  std::unique_lock<std::mutex> lock = timed_lock(writer_mu_, stats);
  if (stats != nullptr) stats->requests += 1;
  StreamResult r;
  for (const ServiceFrame& f : frames) {
    if (std::optional<archive::PartitionInfo> cut = ingester_.append(f.job, f.bytes)) {
      r.published.push_back(*std::move(cut));
    }
  }
  if (!r.published.empty()) publish_locked();
  r.generation = archive_.manifest().generation;
  r.open_logs = ingester_.open_logs();
  return r;
}

ArchiveService::StreamResult ArchiveService::stream_flush(ServiceStats* stats) {
  std::unique_lock<std::mutex> lock = timed_lock(writer_mu_, stats);
  if (stats != nullptr) stats->requests += 1;
  StreamResult r;
  if (std::optional<archive::PartitionInfo> cut = ingester_.flush()) {
    r.published.push_back(*std::move(cut));
    publish_locked();
  }
  r.generation = archive_.manifest().generation;
  r.open_logs = ingester_.open_logs();
  return r;
}

archive::StreamStats ArchiveService::stream_stats() {
  const std::scoped_lock lock(writer_mu_);
  return ingester_.stats();
}

void ArchiveService::start_compactor(const CompactorOptions& opts) {
  const std::scoped_lock lock(compactor_mu_);
  if (compactor_pool_ != nullptr) {
    throw util::ConfigError("service: background compactor is already running");
  }
  compactor_stop_ = false;
  compactor_pool_ = std::make_unique<util::ThreadPool>(1);
  compactor_pool_->submit([this, opts] { compactor_loop(opts); });
}

void ArchiveService::stop_compactor() {
  std::unique_ptr<util::ThreadPool> pool;
  {
    const std::scoped_lock lock(compactor_mu_);
    if (compactor_pool_ == nullptr) return;
    compactor_stop_ = true;
    pool = std::move(compactor_pool_);
  }
  compactor_cv_.notify_all();
  pool->wait_idle();
  pool.reset();  // joins the worker
}

bool ArchiveService::compactor_running() const {
  const std::scoped_lock lock(compactor_mu_);
  return compactor_pool_ != nullptr;
}

std::string ArchiveService::compactor_last_error() const {
  const std::scoped_lock lock(compactor_mu_);
  return compactor_last_error_;
}

void ArchiveService::compactor_loop(CompactorOptions opts) {
  // Runs as ONE long task on the dedicated pool; ThreadPool tasks must not
  // throw, so every iteration is fenced.  After a successful merge the loop
  // re-plans immediately — a cascade (level 0 fills level 1 fills level 2…)
  // drains without idling between steps.  A failing step (full disk, I/O
  // error) is recorded and retried after an exponential backoff, so a
  // persistent fault neither spins the loop nor goes unreported.
  for (;;) {
    {
      const std::scoped_lock lock(compactor_mu_);
      if (compactor_stop_) return;
    }
    bool merged = false;
    std::string error;
    try {
      merged = compact_step(opts.policy).has_value();
      if (merged) compactions_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    std::chrono::milliseconds wait = opts.interval;
    if (error.empty()) {
      compactor_failures_.store(0, std::memory_order_relaxed);
    } else {
      const std::uint64_t failures =
          compactor_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
      wait = std::max(wait, std::chrono::milliseconds(1));
      for (std::uint64_t k = 0; k < failures && wait < kCompactorMaxBackoff; ++k) wait *= 2;
      wait = std::min(wait, kCompactorMaxBackoff);
      const std::scoped_lock lock(compactor_mu_);
      compactor_last_error_ = std::move(error);
      compactor_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!merged) {
      std::unique_lock<std::mutex> lock(compactor_mu_);
      compactor_cv_.wait_for(lock, wait, [this] { return compactor_stop_; });
      if (compactor_stop_) return;
    }
  }
}

ArchiveService::GetResult ArchiveService::get_window_pinned(const Pin& pin,
                                                            std::uint64_t last_windows,
                                                            bool keep_analysis) {
  MLIO_ASSERT(pin.valid());
  const auto t0 = SteadyClock::now();
  GetResult r;
  r.generation = pin.generation();
  r.pin = pin;
  r.windows = archive::select_last_windows(pin.manifest(), last_windows);
  r.stats.requests = 1;
  const std::span<const archive::PartitionInfo> parts =
      std::span(pin.manifest().partitions).subspan(r.windows.first);
  r.stats.query.partitions = parts.size();

  std::vector<CacheKey> identity;
  identity.reserve(parts.size());
  for (const archive::PartitionInfo& p : parts) {
    identity.push_back(CacheKey{p.id, p.data_generation});
  }

  std::shared_ptr<const core::Analysis> merged;
  std::uint64_t fingerprint = 0;
  const std::shared_ptr<const MergedResult> base = merged_.lookup(identity);
  const std::size_t reused = base ? base->identity.size() : 0;
  r.stats.query.partitions_reused = reused;
  if (base && reused == parts.size()) {
    // The same shards were folded before (this generation, or any other
    // whose selection names them): the memoized answer IS this answer.
    r.stats.query.merged_hits = 1;
    r.fingerprint = base->fingerprint;
    if (keep_analysis) r.analysis = base->analysis;
    r.stats.query.total_seconds = static_cast<double>(ns_since(t0)) * 1e-9;
    return r;
  }
  if (base) {
    // Extend the longest memoized prefix — ingest appends partitions, so
    // merged(prefix) ⊕ delta shards continues the canonical left fold
    // bit-identically.
    r.stats.query.prefix_merges = 1;
    const auto t_scan = SteadyClock::now();
    auto extended = std::make_shared<core::Analysis>(*base->analysis);
    for (const archive::PartitionInfo& p : parts.subspan(reused)) {
      extended->merge(*resolve_shard(p, r.stats));
    }
    r.stats.scan_ns = ns_since(t_scan);
    r.stats.query.scan_seconds = static_cast<double>(r.stats.scan_ns) * 1e-9;
    fingerprint = extended->fingerprint();
    merged = std::move(extended);
  } else {
    // Full merge — resolve every selected shard (on the merge pool when
    // configured) and fold with the pinned-shape tree.
    r.stats.query.full_merges = 1;
    const auto t_scan = SteadyClock::now();
    const std::vector<std::shared_ptr<const core::Analysis>> shards = resolve_all(parts, r.stats);
    r.stats.scan_ns = ns_since(t_scan);
    r.stats.query.scan_seconds = static_cast<double>(r.stats.scan_ns) * 1e-9;

    const auto t_merge = SteadyClock::now();
    std::vector<const core::Analysis*> ptrs;
    ptrs.reserve(shards.size());
    for (const auto& shard : shards) ptrs.push_back(shard.get());
    core::MergeTreeStats tree;
    auto folded =
        std::make_shared<core::Analysis>(core::Analysis::merge_ordered(ptrs, pool_.get(), &tree));
    r.stats.query.tree_merges = tree.used_tree ? 1 : 0;
    r.stats.merge_ns = ns_since(t_merge);
    r.stats.query.merge_seconds = static_cast<double>(r.stats.merge_ns) * 1e-9;
    fingerprint = folded->fingerprint();
    merged = std::move(folded);
  }

  if (merged_.enabled()) {
    auto entry = std::make_shared<MergedResult>();
    entry->analysis = merged;
    entry->fingerprint = fingerprint;
    entry->identity = std::move(identity);
    merged_.insert(std::move(entry), core::serialized_analysis_bytes(*merged));
  }

  r.fingerprint = fingerprint;
  if (keep_analysis) r.analysis = std::move(merged);
  r.stats.query.total_seconds = static_cast<double>(ns_since(t0)) * 1e-9;
  return r;
}

ArchiveService::GetResult ArchiveService::get_window(std::uint64_t last_windows,
                                                     bool keep_analysis) {
  ServiceStats carried;  // wait + retry cost accumulated across attempts
  for (unsigned attempt = 0;; ++attempt) {
    const auto t0 = SteadyClock::now();
    Pin p = pin();
    carried.queue_wait_ns += ns_since(t0);
    try {
      GetResult r = get_window_pinned(p, last_windows, keep_analysis);
      r.stats.queue_wait_ns += carried.queue_wait_ns;
      r.stats.stale_retries += carried.stale_retries;
      return r;
    } catch (const archive::StaleReadError&) {
      // Our own GC can't outrun a live pin, so the race was external (or the
      // pin predates an external publish): resync from disk and retry.
      if (attempt >= opts_.max_stale_retries) throw;
      carried.stale_retries += 1;
      refresh_from_disk();
    } catch (const util::IoError&) {
      // A vanished file without a newer manifest on disk yet: same recovery,
      // bounded the same way.
      if (attempt >= opts_.max_stale_retries) throw;
      carried.stale_retries += 1;
      if (!refresh_from_disk()) throw;
    }
  }
}

core::Analysis ArchiveService::replay_serial_window(const Pin& pin,
                                                    std::uint64_t last_windows) const {
  MLIO_ASSERT(pin.valid());
  const archive::WindowSelection sel =
      archive::select_last_windows(pin.manifest(), last_windows);
  const std::vector<archive::PartitionInfo>& parts = pin.manifest().partitions;
  core::Analysis replay;
  archive::Archive::ScanScratch scratch;
  archive::ScanOptions scan_opts;
  scan_opts.mlp_depth = 1;  // the seed's one-log-at-a-time loop, verbatim
  for (std::size_t i = sel.first; i < parts.size(); ++i) {
    core::Analysis shard;
    archive_.scan_partition(
        parts[i], [&](const darshan::LogData& log) { shard.add(log); }, scratch, scan_opts);
    replay.merge(shard);
  }
  return replay;
}

}  // namespace mlio::service
