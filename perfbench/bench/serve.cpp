// serve: an operator's live dashboard over a streaming archive.
//
// The feed is a fixed corpus: make_frame_pool's frames re-stamped as a
// steady live feed of kFramesPerAppend logs per daily window.  Set-up
// stream-ingests its first kSetupFrames frames through an ArchiveService
// with default caches, drains the leveled compactor, and warms the caches.
// The op list is a fixed sequence of rounds, one client, closed loop:
//
//   stream_append of kFramesPerAppend frames (cuts and commits one window)
//   compact_step (leveled, fanout 4) after every kCompactEvery appends
//   the day's dashboard reads: kViewers viewers each refresh every
//   kRefreshSeconds, kAllTimeViewers of them with get() and the rest with
//   get_window(kLastWindows); --seed draws the order of the reads
//
// The mix is derived from that stated deployment, not measured: one window
// publish per day against 8 x 96 = 768 reads.  At that ratio the reads take
// about 97 % of the measured time, so a write-path change shows in
// write_ms_p50 / write_ms_tail rather than in ops_per_s or logs_per_s.
//
// The oracle replays every (generation, window span) a read answered at,
// serially and cache-free (ArchiveService::replay_serial's recipe, each
// live partition decoded once), right after the first read of it; that work
// is left out of the measured time.  The deferred GC must drain to 0.
//
// Traced replay: the same op list against a fresh, identical service.  Each
// service call is a span; its VFS calls are child spans (archive.stage,
// archive.commit, archive.scan); the shard folds, rescans and partition
// builds it runs inside are carved out of its self time by side
// measurements of the same calls on the same data, made between ops.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "archive/query.hpp"
#include "counting_vfs.hpp"
#include "replay.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mlio;

constexpr std::uint64_t kPoolJobs = 3200;
constexpr std::uint64_t kSetupFrames = 480;
constexpr std::uint64_t kFramesPerAppend = 8;
constexpr std::int64_t kWindowSeconds = 86400;
/// Feed arrival spacing: kFramesPerAppend logs per daily window, so every
/// append cuts (and commits) exactly one window.
constexpr std::int64_t kArrivalSeconds =
    kWindowSeconds / static_cast<std::int64_t>(kFramesPerAppend);
constexpr std::uint64_t kCompactEvery = 2;
constexpr std::uint64_t kLastWindows = 2;
constexpr std::uint64_t kRoundsPerSecond = 50;  ///< nominal: op-list size per --seconds
constexpr std::uint64_t kViewers = 8;
constexpr std::uint64_t kAllTimeViewers = 2;
constexpr std::uint64_t kRefreshSeconds = 900;
constexpr std::uint64_t kRefreshesPerRound = kWindowSeconds / kRefreshSeconds;
constexpr std::uint64_t kReadsPerRound = kViewers * kRefreshesPerRound;
constexpr std::uint64_t kChunks = 10;
constexpr std::uint64_t kCorpusSeed = 0x5e7e;
constexpr int kSetups = 3;

enum class OpKind : std::uint8_t { kAppend, kCompact, kGetWindow, kGet };

struct Op {
  OpKind kind = OpKind::kGet;
  std::uint64_t first = 0;  ///< appends: first frame index
};

std::uint64_t rounds(const Args& a) { return kRoundsPerSecond * a.seconds; }

std::vector<Op> make_ops(const Args& a) {
  util::Rng rng = util::Rng::stream(a.seed, 1);
  std::vector<Op> ops;
  std::vector<OpKind> reads(kReadsPerRound, OpKind::kGetWindow);
  std::fill_n(reads.begin(), kAllTimeViewers * kRefreshesPerRound, OpKind::kGet);
  for (std::uint64_t r = 0; r < rounds(a); ++r) {
    ops.push_back({OpKind::kAppend, kSetupFrames + r * kFramesPerAppend});
    if ((r + 1) % kCompactEvery == 0) ops.push_back({OpKind::kCompact, 0});
    for (std::uint64_t k = reads.size(); k > 1; --k) {
      std::swap(reads[k - 1], reads[rng.uniform_u64(0, k - 1)]);
    }
    for (const OpKind kind : reads) ops.push_back({kind, 0});
  }
  return ops;
}

service::ArchiveService::Options service_options() {
  service::ArchiveService::Options o;  // default shard cache and memo
  o.stream.window_seconds = kWindowSeconds;
  return o;
}

const archive::LeveledPolicy kPolicy{4};

/// The feed: the corpus frames in generation order, re-stamped as a steady
/// live feed (log k starts kArrivalSeconds after log k-1, each job keeping
/// its duration) and re-serialized.  The feed is the same at every seed:
/// which logs share a window decides what every later read folds, and
/// drawing it per seed moved read_ms_p50 by a third between seeds.
std::vector<service::ServiceFrame> make_feed(const Args& a) {
  const std::vector<service::ServiceFrame> pool =
      service::make_frame_pool(kPoolJobs, kCorpusSeed);
  const std::uint64_t n = kSetupFrames + rounds(a) * kFramesPerAppend;
  if (pool.size() < n) {
    throw std::runtime_error("serve: frame pool holds " + std::to_string(pool.size()) +
                             " frames, the op list needs " + std::to_string(n));
  }
  constexpr std::int64_t kEpoch = 1546300800;  // 2019-01-01, a window boundary
  std::vector<service::ServiceFrame> feed;
  feed.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    darshan::LogData log = darshan::read_log_bytes(pool[k].bytes);
    const std::int64_t duration = log.job.end_time - log.job.start_time;
    log.job.start_time = kEpoch + static_cast<std::int64_t>(k) * kArrivalSeconds + 60;
    log.job.end_time = log.job.start_time + duration;
    feed.push_back({log.job, darshan::write_log_bytes(log)});
  }
  return feed;
}

/// Open a fresh service on a stream-ingested, compacted, warmed archive.
std::unique_ptr<service::ArchiveService> setup(const std::filesystem::path& dir, CountingVfs& vfs,
                                               const std::vector<service::ServiceFrame>& frames) {
  vfs.reset_dir(dir);
  archive::Archive::create(dir, vfs);
  auto svc = std::make_unique<service::ArchiveService>(dir, service_options(), vfs);
  for (std::uint64_t i = 0; i < kSetupFrames; i += kFramesPerAppend) {
    svc->stream_append(std::span(frames).subspan(i, kFramesPerAppend));
  }
  svc->stream_flush();
  while (svc->compact_step(kPolicy)) {
  }
  svc->get();
  svc->get_window(kLastWindows);
  return svc;
}

struct Pass {
  Meter meter;
  std::uint64_t logs_committed = 0;
  std::uint64_t answers_digest = 0;
  std::uint64_t verified_reads = 0;
  /// Oracle answer per (generation, last_windows) read so far.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> expected;
  service::ArchiveService::Pin last_pin;  ///< generation of the last read
  Samples reads, writes;
  // Work counters (machine-independent).
  std::uint64_t appends = 0, compactions = 0, gets = 0;
  std::uint64_t shards_served = 0, rescans = 0, memo_hits = 0;
  std::uint64_t bytes_appended = 0, bytes_compacted = 0;
};

/// Oracle: per-partition shards decoded once, cache-free, one log at a time,
/// folded left in partition order for each selected suffix.
class Oracle {
 public:
  /// Reads through the uncounted handle, so the counters see only the
  /// service's own I/O.
  Oracle(const std::filesystem::path& dir, CountingVfs& vfs)
      : ar_(archive::Archive::open(dir, vfs.uncounted())) {}

  const core::Analysis& shard(const archive::PartitionInfo& p, ScanTally* side = nullptr) {
    const Key k{p.id, p.data_generation};
    auto it = shards_.find(k);
    if (it == shards_.end()) {
      ScanTally tally;
      core::Analysis a;
      replay_partition(ar_, p, a, decode_, nullptr, tally);
      it = shards_.emplace(k, Entry{std::move(a), tally}).first;
    }
    if (side != nullptr) *side = it->second.tally;
    return it->second.shard;
  }
  bool known(const archive::PartitionInfo& p) const {
    return shards_.count(Key{p.id, p.data_generation}) != 0;
  }
  /// Drop the shards of partitions `m` no longer holds (compacted away; no
  /// later read can reach them), so the oracle's memory tracks the archive.
  void prune(const archive::Manifest& m) {
    std::set<Key> live;
    for (const archive::PartitionInfo& p : m.partitions) live.insert({p.id, p.data_generation});
    std::erase_if(shards_, [&](const auto& kv) { return !live.count(kv.first); });
  }
  /// Fingerprint of the selected suffix's left fold; optionally counts the
  /// merges and times the fold and the fingerprint.
  std::uint64_t fold(const archive::Manifest& m, std::uint64_t last_windows,
                     std::uint64_t* merges = nullptr, double* merge_s = nullptr,
                     double* fingerprint_s = nullptr) {
    const archive::WindowSelection sel = archive::select_last_windows(m, last_windows);
    for (std::size_t i = sel.first; i < m.partitions.size(); ++i) shard(m.partitions[i]);
    const std::uint64_t t0 = steady_ns();
    core::Analysis merged;
    for (std::size_t i = sel.first; i < m.partitions.size(); ++i) {
      merged.merge(shard(m.partitions[i]));
    }
    const std::uint64_t t1 = steady_ns();
    const std::uint64_t fp = merged.fingerprint();
    if (merge_s != nullptr) *merge_s = static_cast<double>(t1 - t0) * 1e-9;
    if (fingerprint_s != nullptr) *fingerprint_s = static_cast<double>(steady_ns() - t1) * 1e-9;
    if (merges != nullptr) *merges += m.partitions.size() - sel.first;
    return fp;
  }
  archive::Archive& archive() { return ar_; }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  struct Entry {
    core::Analysis shard;
    ScanTally tally;  ///< side-measured cost of building it
  };
  archive::Archive ar_;
  DecodeState decode_;
  std::map<Key, Entry> shards_;
};

/// Everything the traced pass measures beside the ledger.
struct SideWork {
  ScanTally rescans;
  std::uint64_t merges = 0;
  std::uint64_t side_mismatches = 0;
};

/// Run the op list.  `oracle` checks every read; with a tracer, it also
/// serves the side measurements carved into the ledger.
Pass replay(service::ArchiveService& svc, const std::vector<Op>& ops,
            const std::vector<service::ServiceFrame>& frames, CountingVfs& vfs, Oracle& oracle,
            Tracer* tr, SideWork* work) {
  Pass pass;
  std::deque<std::uint64_t> open_frames;  // traced: frames buffered in the open window
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t chunk_ops = 0, chunk_logs = 0;
  pass.meter.start();
  for (std::uint64_t i = 0; i < ops.size(); ++i) {
    if (i > 0 && i * kChunks / ops.size() != (i - 1) * kChunks / ops.size()) {
      pass.meter.cut(chunk_ops, chunk_logs);  // kChunks even chunks of the op list
      chunk_ops = chunk_logs = 0;
    }
    chunk_ops += 1;
    const std::uint64_t committed0 = pass.logs_committed;
    const Op& op = ops[i];
    const std::uint64_t written0 = vfs.counters().bytes_written;
    const std::size_t root = tr ? tr->begin_op(i) : 0;
    const std::uint64_t t0 = steady_ns();
    std::size_t span = 0;
    switch (op.kind) {
      case OpKind::kAppend: {
        service::ArchiveService::StreamResult res;
        {
          const Scope s(tr, Layer::kServiceAppend);
          span = s.index();
          res = svc.stream_append(std::span(frames).subspan(op.first, kFramesPerAppend));
        }
        pass.writes.add_ns(steady_ns() - t0);
        if (tr) tr->end(root);
        pass.appends += 1;
        pass.bytes_appended += vfs.counters().bytes_written - written0;
        for (const archive::PartitionInfo& p : res.published) pass.logs_committed += p.log_count;
        if (tr == nullptr) break;
        for (std::uint64_t k = 0; k < kFramesPerAppend; ++k) open_frames.push_back(op.first + k);
        for (const archive::PartitionInfo& p : res.published) {
          // Side: the partition build the cut ran (append_frame + finish).
          const std::uint64_t tb = steady_ns();
          archive::Archive::PartitionWriter w = oracle.archive().begin_partition_at(p.id);
          for (std::uint64_t k = 0; k < p.log_count; ++k) {
            const service::ServiceFrame& f = frames[open_frames.front()];
            open_frames.pop_front();
            w.append_frame(f.job, f.bytes);
          }
          const archive::Archive::PendingPartition built = w.finish();
          if (built.info.segment_crc != p.segment_crc) work->side_mismatches += 1;
          tr->carve(span, Layer::kBuild, static_cast<double>(steady_ns() - tb) * 1e-9);
        }
        break;
      }
      case OpKind::kCompact: {
        bool merged = false;
        {
          const Scope s(tr, Layer::kCompact);
          merged = svc.compact_step(kPolicy).has_value();
        }
        pass.writes.add_ns(steady_ns() - t0);
        if (tr) tr->end(root);
        pass.compactions += merged ? 1 : 0;
        pass.bytes_compacted += vfs.counters().bytes_written - written0;
        break;
      }
      case OpKind::kGetWindow:
      case OpKind::kGet: {
        const bool windowed = op.kind == OpKind::kGetWindow;
        service::ArchiveService::GetResult res;
        {
          const Scope s(tr, windowed ? Layer::kServiceGetWindow : Layer::kServiceGet);
          span = s.index();
          res = windowed ? svc.get_window(kLastWindows) : svc.get();
        }
        pass.reads.add_ns(steady_ns() - t0);
        if (tr) tr->end(root);
        const std::uint64_t n = windowed ? kLastWindows : 0;
        if (tr != nullptr) {
          // Side: rebuild the shards the service rescanned, and replay the
          // fold a windowed get (or a full-merge get) ran, on the same shards.
          // Runs before the oracle below, which would build them first.
          const archive::Manifest& m = res.pin.manifest();
          const archive::WindowSelection sel = archive::select_last_windows(m, n);
          // A window covering the whole archive is served by the memoized
          // whole-archive path, like get().
          const bool suffix_fold = windowed && !sel.whole_archive();
          std::size_t lo = sel.first;
          if (!suffix_fold && res.stats.query.full_merges == 0) {
            lo = res.stats.query.partitions_reused;
          }
          ScanTally fresh;
          std::uint64_t fresh_count = 0;
          for (std::size_t k = lo; k < m.partitions.size(); ++k) {
            if (oracle.known(m.partitions[k])) continue;
            ScanTally t;
            oracle.shard(m.partitions[k], &t);
            fresh.merge(t);
            fresh_count += 1;
          }
          if (fresh_count == res.stats.query.partitions_scanned) {
            tr->carve(span, Layer::kInflate, fresh.inflate_s);
            tr->carve(span, Layer::kDarshanRead, fresh.read_s);
            tr->carve(span, Layer::kCoreAdd, fresh.add_s);
            work->rescans.merge(fresh);
          }
          if (suffix_fold || res.stats.query.full_merges == 1) {
            double merge_s = 0, fingerprint_s = 0;
            const std::uint64_t fp = oracle.fold(m, n, &work->merges, &merge_s, &fingerprint_s);
            if (fp != res.fingerprint) work->side_mismatches += 1;
            tr->carve(span, Layer::kCoreMerge,
                      suffix_fold ? merge_s : static_cast<double>(res.stats.merge_ns) * 1e-9);
            tr->carve(span, Layer::kCoreFingerprint, fingerprint_s);
          }
        }
        const auto [it, first] = pass.expected.try_emplace({res.generation, n}, 0);
        if (first) {  // the oracle's answer for this generation and span
          const std::uint64_t v0 = steady_ns();
          const double c0 = cpu_seconds();
          it->second = oracle.fold(res.pin.manifest(), n);
          oracle.prune(res.pin.manifest());
          pass.meter.exclude(v0, c0);
        }
        if (it->second == res.fingerprint) pass.verified_reads += 1;
        pass.last_pin = res.pin;
        h = (h ^ res.fingerprint) * 1099511628211ull;
        pass.gets += 1;
        pass.shards_served += res.stats.query.shards_served();
        pass.rescans += res.stats.query.partitions_scanned;
        pass.memo_hits += res.stats.query.merged_hits;
        break;
      }
    }
    chunk_logs += pass.logs_committed - committed0;
  }
  pass.meter.cut(chunk_ops, chunk_logs);
  pass.answers_digest = h;
  return pass;
}

/// Cross-check the oracle against the service's own serial replays at the
/// last generation read, release the pin, flush, and require the deferred
/// GC to drain.
void verify_oracle(service::ArchiveService& svc, Pass& pass, Report& r) {
  const service::ArchiveService::Pin& last = pass.last_pin;
  for (const std::uint64_t n : {std::uint64_t{0}, kLastWindows}) {
    const auto it = pass.expected.find({last.generation(), n});
    if (it == pass.expected.end()) continue;
    const core::Analysis replay =
        n == 0 ? svc.replay_serial(last) : svc.replay_serial_window(last, n);
    if (replay.fingerprint() != it->second) {
      r.fail("serve: oracle disagrees with ArchiveService::replay_serial");
    }
  }
  pass.last_pin = {};
  svc.stream_flush();
  if (svc.deferred_gc_pending() != 0) {
    r.fail("serve: " + std::to_string(svc.deferred_gc_pending()) + " files left in deferred GC");
  }
}

/// The writes' oracle: after the final flush, the archive deep-verifies and
/// holds exactly the frames streamed into it.
bool verify_writes(const std::filesystem::path& dir, CountingVfs& vfs,
                   std::uint64_t frames_streamed, Report& r) {
  const archive::Archive ar = archive::Archive::open(dir, vfs.uncounted());
  const archive::Archive::VerifyReport vr = ar.verify(true);
  std::uint64_t logs = 0;
  for (const archive::PartitionInfo& p : ar.manifest().partitions) logs += p.log_count;
  if (!vr.ok() || logs != frames_streamed) {
    r.fail("serve: archive holds " + std::to_string(logs) + " logs after the flush, expected " +
           std::to_string(frames_streamed) + (vr.ok() ? "" : "; " + vr.issues.front()));
    return false;
  }
  return true;
}

}  // namespace

Report run_serve(const Args& args) {
  const std::filesystem::path dir = args.work_dir / "serve";
  CountingVfs vfs;
  Report r;

  // Set-up = building the feed (generate, simulate, serialize) plus the
  // stream-ingested, compacted, warmed service.
  std::vector<double> setups;
  std::vector<service::ServiceFrame> frames;
  std::unique_ptr<service::ArchiveService> svc;
  for (int k = 0; k < kSetups; ++k) {
    svc.reset();
    const std::uint64_t t0 = steady_ns();
    frames = make_feed(args);
    svc = setup(dir, vfs, frames);
    setups.push_back(static_cast<double>(steady_ns() - t0) * 1e-9);
  }
  const std::vector<Op> ops = make_ops(args);
  std::printf("serve: %zu frames in the feed, %zu ops\n", frames.size(), ops.size());

  const service::CacheCounters cache0 = svc->cache_counters();
  Oracle oracle(dir, vfs);
  Pass pass = replay(*svc, ops, frames, vfs, oracle, nullptr, nullptr);
  std::uint64_t feed_bytes = frames.size() * sizeof(service::ServiceFrame);
  for (const service::ServiceFrame& f : frames) feed_bytes += f.bytes.size();
  const double rss = peak_rss_mb(vfs.peak_stored_bytes() + feed_bytes);
  const service::CacheCounters cache1 = svc->cache_counters();
  r.attempted = ops.size();

  if (pass.verified_reads != pass.gets) {
    r.fail("serve: " + std::to_string(pass.gets - pass.verified_reads) +
           " reads differ from the replay");
  }
  verify_oracle(*svc, pass, r);
  const std::uint64_t n_writes = ops.size() - pass.gets;
  const bool writes_ok = verify_writes(dir, vfs, kSetupFrames + pass.appends * kFramesPerAppend, r);
  const std::uint64_t verified = (r.correct ? pass.verified_reads : 0) + (writes_ok ? n_writes : 0);
  r.failed = r.attempted - verified;

  r.counter("ops", ops.size());
  r.counter("logs", pass.logs_committed);
  r.counter("appends", pass.appends);
  r.counter("compactions", pass.compactions);
  r.counter("gets", pass.gets);
  r.counter("shards_served", pass.shards_served);
  r.counter("rescans", pass.rescans);
  r.counter("memo_hits", pass.memo_hits);
  r.counter("cache_hits", cache1.hits - cache0.hits);
  r.counter("cache_misses", cache1.misses - cache0.misses);
  r.counter("bytes_appended", pass.bytes_appended);
  r.counter("shard_cache_bytes", cache1.bytes_used);
  r.counter("memo_bytes", svc->merged_counters().bytes_used);
  r.counter("answers_digest", pass.answers_digest);

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = median(setups);
    e.meter = pass.meter;
    e.peak_rss_mb = rss;
    e.ops = ops.size();
    e.verified_ops = verified;
    e.reads = pass.reads;
    e.writes = pass.writes;
    const archive::Archive ar = archive::Archive::open(dir, vfs);
    e.stored_bytes = dir_bytes(vfs, dir);
    e.logical_log_bytes = logical_log_bytes(ar, vfs);
    add_end_to_end(r, e);
    return r;
  }

  // Traced run: a fresh, identical service and the same op list.
  svc.reset();
  const std::filesystem::path tdir = args.work_dir / "serve-traced";
  svc = setup(tdir, vfs, frames);
  Oracle side(tdir, vfs);  // checks the traced reads too
  Tracer tr;
  SideWork work;
  const service::CacheCounters tc0 = svc->cache_counters();
  const service::CacheCounters tm0 = svc->merged_counters();
  const VfsCounters tb = vfs.counters();
  vfs.attach(&tr);
  Pass traced = replay(*svc, ops, frames, vfs, side, &tr, &work);
  vfs.attach(nullptr);
  const VfsCounters ta = vfs.counters();
  const service::CacheCounters tc1 = svc->cache_counters();
  const service::CacheCounters tm1 = svc->merged_counters();
  if (traced.answers_digest != pass.answers_digest || work.side_mismatches != 0 ||
      traced.verified_reads != traced.gets) {
    r.fail("serve: traced replay answered differently");
  }
  verify_oracle(*svc, traced, r);
  tr.write_tsv(args.work_dir / "spans-serve.tsv");

  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  add_ledger(r, tr.ledger(), pass.meter.wall_s());
  r.metric("darshan.frames_decoded", static_cast<double>(work.rescans.frames), "count");
  r.metric("core.logs_added", static_cast<double>(work.rescans.frames), "count");
  r.metric("core.merges", static_cast<double>(work.merges), "count");
  r.metric("archive.partitions_scanned", static_cast<double>(work.rescans.partitions), "count");
  r.metric("archive.segment_bytes_read", static_cast<double>(work.rescans.segment_bytes),
           "bytes");
  r.metric("archive.commits", static_cast<double>(ta.commits - tb.commits), "count");
  r.metric("archive.compactions", static_cast<double>(traced.compactions), "count");
  r.metric("archive.bytes_rewritten_per_ingested_byte",
           ratio(traced.bytes_compacted, traced.bytes_appended), "ratio");
  r.metric("archive.partitions_live",
           static_cast<double>(svc->pin().manifest().partitions.size()), "count");
  r.metric("util.vfs_bytes_written", static_cast<double>(ta.bytes_written - tb.bytes_written),
           "bytes");
  r.metric("util.vfs_bytes_read", static_cast<double>(ta.bytes_read - tb.bytes_read), "bytes");
  VfsCounters d;
  d.fsyncs = ta.fsyncs - tb.fsyncs;
  d.dirsyncs = ta.dirsyncs - tb.dirsyncs;
  d.commits = ta.commits - tb.commits;
  r.metric("util.vfs_fsyncs_per_commit", d.flushes_per_commit(), "ratio");
  r.metric("util.vfs_renames", static_cast<double>(ta.renames - tb.renames), "count");
  r.metric("service.memo_hit_rate", ratio(tm1.hits - tm0.hits, tm1.lookups - tm0.lookups),
           "ratio");
  r.metric("service.shard_hit_rate", ratio(tc1.hits - tc0.hits, tc1.lookups - tc0.lookups),
           "ratio");
  r.metric("service.shards_resolved_per_get", ratio(traced.shards_served, traced.gets), "ratio");
  r.metric("service.rescans", static_cast<double>(traced.rescans), "count");
  r.metric("service.gc_pending_end", static_cast<double>(svc->deferred_gc_pending()), "count");
  return r;
}

}  // namespace perfbench
