// scan: the cold paper-table query.
//
// Set-up builds one archive in kCommits group commits of a fixed corpus (the
// bulk stratum in drops, committed in an order drawn from --seed; the
// full-scale huge stratum with the last one; no snapshots) and pins the
// expected answer with a serial replay.  Op i =
// archive::query_archive with write_snapshots = false and threads = nproc/2,
// so every op rebuilds every shard from its segment: inflate, parse,
// summarize, accumulate, merge.  Nothing is generated, compressed or
// committed while measuring; the set-up's commits are the workload's write
// samples.
//
// Traced replay: the same query through its layer calls — per partition,
// the read path of replay.hpp, then core::Analysis::merge in partition
// order — which must give the same fingerprint.

#include <algorithm>

#include "archive/ingest.hpp"
#include "archive/query.hpp"
#include "counting_vfs.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mlio;

constexpr std::uint64_t kCommits = 32;
constexpr std::uint64_t kJobsPerCommit = 19;
constexpr std::uint64_t kOpsPerSecond = 18;  ///< nominal: op-list size per --seconds
constexpr std::uint64_t kChunks = 10;
constexpr std::uint64_t kCorpusSeed = 0x5ca9;
constexpr int kSetups = 6;  ///< the first also warms lazy state; its commits are not sampled

/// Half the cores: on a shared host, a query using every core waits on
/// whichever worker a neighbour's burst stalls; half leaves headroom.
unsigned query_threads() { return std::max(1u, nproc() / 2); }

struct Setup {
  double seconds = 0;
  std::uint64_t expected = 0;  ///< pinned serial-replay fingerprint
  Samples commits;
};

Setup setup(const std::filesystem::path& dir, CountingVfs& vfs, std::uint64_t seed) {
  std::vector<std::uint64_t> order(kCommits);
  for (std::uint64_t k = 0; k < kCommits; ++k) order[k] = k;
  util::Rng rng = util::Rng::stream(seed, 0x5ca9);
  for (std::uint64_t k = kCommits; k > 1; --k) {
    std::swap(order[k - 1], order[rng.uniform_u64(0, k - 1)]);
  }
  Setup s;
  const std::uint64_t t0 = steady_ns();
  vfs.reset_dir(dir);
  archive::Archive ar = archive::Archive::create(dir, vfs);
  for (std::uint64_t k = 0; k < kCommits; ++k) {
    wl::GeneratorConfig cfg;
    cfg.seed = op_seed(kCorpusSeed, order[k]);
    cfg.n_jobs = kJobsPerCommit;
    cfg.logs_per_job_scale = 0.25;
    cfg.files_per_log_scale = 0.25;
    const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
    archive::IngestOptions o;
    o.include_huge = k + 1 == kCommits;
    o.threads = 1;  // single-threaded commits: steadier write samples on a shared host
    const std::uint64_t tc = steady_ns();
    archive::ingest_generated(ar, gen, o);
    s.commits.add_ns(steady_ns() - tc);
  }
  // The oracle every answer must match: cache-free, one log at a time,
  // partition-order left fold (ArchiveService::replay_serial's recipe).
  core::Analysis replay;
  archive::Archive::ScanScratch scratch;
  archive::ScanOptions depth1;
  depth1.mlp_depth = 1;
  for (const archive::PartitionInfo& p : ar.manifest().partitions) {
    core::Analysis shard;
    ar.scan_partition(p, [&](const darshan::LogData& log) { shard.add(log); }, scratch, depth1);
    replay.merge(shard);
  }
  s.expected = replay.fingerprint();
  s.seconds = static_cast<double>(steady_ns() - t0) * 1e-9;
  return s;
}

}  // namespace

Report run_scan(const Args& args) {
  const std::filesystem::path dir = args.work_dir / "scan";
  CountingVfs vfs;
  Report r;
  const std::uint64_t n_ops = kOpsPerSecond * args.seconds;
  r.attempted = n_ops;

  std::vector<double> setups;
  Samples writes;
  std::uint64_t expected = 0;
  for (int k = 0; k < kSetups; ++k) {
    const Setup s = setup(dir, vfs, args.seed);
    setups.push_back(s.seconds);
    if (k > 0) writes.merge(s.commits);
    if (k > 0 && s.expected != expected) r.fail("scan: set-up is not deterministic");
    expected = s.expected;
  }

  archive::Archive ar = archive::Archive::open(dir, vfs);
  archive::QueryOptions q;
  q.threads = query_threads();
  q.write_snapshots = false;
  archive::QueryScratch scratch;
  Samples reads;
  Meter meter;
  std::uint64_t logs = 0, verified = 0, rebuilt = 0, chunk_ops = 0, chunk_logs = 0;
  const VfsCounters before = vfs.counters();
  meter.start();
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    const std::uint64_t t0 = steady_ns();
    const archive::QueryResult res = archive::query_archive(ar, q, scratch);
    const std::uint64_t fp = res.analysis.fingerprint();
    reads.add_ns(steady_ns() - t0);
    logs += res.stats.logs_scanned;
    chunk_ops += 1;
    chunk_logs += res.stats.logs_scanned;
    rebuilt += res.stats.partitions_scanned;
    if (fp == expected) verified += 1;
    if ((i + 1) * kChunks / n_ops != i * kChunks / n_ops) {  // kChunks even chunks
      meter.cut(chunk_ops, chunk_logs);
      chunk_ops = chunk_logs = 0;
    }
  }
  const double rss = peak_rss_mb(vfs.peak_stored_bytes());
  const VfsCounters after = vfs.counters();
  r.failed = n_ops - verified;
  if (r.failed > 0) r.fail("scan: " + std::to_string(r.failed) + " answers differ from the replay");

  r.counter("logs", logs);
  r.counter("partitions_rebuilt", rebuilt);
  r.counter("bytes_read", after.bytes_read - before.bytes_read);
  r.counter("expected_fingerprint", expected);

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = median(setups);
    e.meter = meter;
    e.peak_rss_mb = rss;
    e.ops = n_ops;
    e.verified_ops = verified;
    e.reads = reads;
    e.writes = writes;
    e.stored_bytes = dir_bytes(vfs, dir);
    e.logical_log_bytes = logical_log_bytes(ar, vfs);
    add_end_to_end(r, e);
    return r;
  }

  // Traced run: the same op list through the layer calls, serially.
  Tracer tr;
  ScanTally tally;
  DecodeState decode;
  std::uint64_t merges = 0;
  const VfsCounters tb = vfs.counters();
  vfs.attach(&tr);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    const std::size_t op = tr.begin_op(i);
    core::Analysis answer;
    for (const archive::PartitionInfo& p : ar.manifest().partitions) {
      core::Analysis shard;
      replay_partition(ar, p, shard, decode, &tr, tally);
      const Scope m(&tr, Layer::kCoreMerge);
      answer.merge(shard);
      merges += 1;
    }
    std::uint64_t fp = 0;
    {
      const Scope f(&tr, Layer::kCoreFingerprint);
      fp = answer.fingerprint();
    }
    tr.end(op);
    if (fp != expected) r.fail("scan: traced replay answered differently");
  }
  vfs.attach(nullptr);
  const VfsCounters ta = vfs.counters();
  tr.write_tsv(args.work_dir / "spans-scan.tsv");

  add_ledger(r, tr.ledger(), meter.wall_s());
  r.metric("darshan.frames_decoded", static_cast<double>(tally.frames), "count");
  r.metric("core.logs_added", static_cast<double>(tally.frames), "count");
  r.metric("core.merges", static_cast<double>(merges), "count");
  r.metric("archive.partitions_scanned", static_cast<double>(tally.partitions), "count");
  r.metric("archive.segment_bytes_read", static_cast<double>(tally.segment_bytes), "bytes");
  r.metric("archive.partitions_live", static_cast<double>(ar.manifest().partitions.size()),
           "count");
  r.metric("util.vfs_bytes_read", static_cast<double>(ta.bytes_read - tb.bytes_read), "bytes");
  return r;
}

}  // namespace perfbench
