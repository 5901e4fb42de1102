// ingest: the write path a facility runs on each Darshan drop.
//
// The corpus is a fixed set of small drops (kJobsPerOp bulk jobs each, one
// generator seed per drop); the op list replays it kPasses times, each pass
// in an order drawn from --seed.  Op = archive::ingest_generated of one drop
// with the CLI's thread defaults: generate, simulate, serialize, deflate,
// stage and ONE group commit.  Each commit is followed by a read-back of the
// committed partition (the op's read; its fingerprint is what the oracle
// checks).  The archive grows across the run.  Rates are medians over the
// passes, which carry identical work.
//
// Traced replay: the same op through ingest_generated's layer calls —
// WorkloadGenerator::generate_bulk_range -> JobExecutor::execute_into ->
// darshan::write_log_bytes_into -> PartitionWriter::append_frame/finish ->
// Archive::stage_partition_files -> Archive::commit_group — which must
// leave a byte-identical archive.

#include <optional>

#include "archive/ingest.hpp"
#include "counting_vfs.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workload/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mlio;

constexpr std::uint64_t kJobsPerOp = 4;
constexpr std::uint64_t kDropsPerSecond = 37;  ///< corpus size per --seconds
constexpr std::uint64_t kPasses = 4;
constexpr std::uint64_t kWarmupOps = 32;  ///< set-up history, also warms lazy state
constexpr std::uint64_t kCorpusSeed = 0x1a9e57;
constexpr int kSetups = 3;

const wl::SystemProfile& profile() { return wl::SystemProfile::cori_2019(); }

wl::GeneratorConfig op_config(std::uint64_t seed) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = kJobsPerOp;
  cfg.logs_per_job_scale = 0.25;  // mlio_archive ingest defaults
  cfg.files_per_log_scale = 0.25;
  return cfg;
}

archive::IngestOptions ingest_options() {
  archive::IngestOptions o;
  o.batches = 1;
  o.include_huge = false;
  return o;  // threads = 0 (all cores inside the partition), ingest_threads = 1
}

struct Plan {
  std::vector<std::uint64_t> warmup;  ///< generator seeds of the set-up drops
  std::vector<std::uint64_t> drops;   ///< generator seeds of the corpus
  std::vector<std::uint64_t> ops;     ///< corpus index of each op
  std::uint64_t seed(std::uint64_t op) const { return drops[ops[op]]; }
};

Plan make_plan(const Args& a) {
  Plan p;
  for (std::uint64_t i = 0; i < kWarmupOps; ++i) p.warmup.push_back(op_seed(kCorpusSeed, i));
  const std::uint64_t n = kDropsPerSecond * a.seconds;
  for (std::uint64_t i = 0; i < n; ++i) p.drops.push_back(op_seed(kCorpusSeed, kWarmupOps + i));
  for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
    std::vector<std::uint64_t> order(n);
    for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
    util::Rng rng = util::Rng::stream(a.seed, pass);
    for (std::uint64_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform_u64(0, i - 1)]);
    p.ops.insert(p.ops.end(), order.begin(), order.end());
  }
  return p;
}

/// Fresh archive holding the warm-up batches; returns the set-up seconds.
double setup(const std::filesystem::path& dir, CountingVfs& vfs, const Plan& plan) {
  const std::uint64_t t0 = steady_ns();
  vfs.reset_dir(dir);
  archive::Archive ar = archive::Archive::create(dir, vfs);
  for (const std::uint64_t s : plan.warmup) {
    const wl::WorkloadGenerator gen(profile(), op_config(s));
    archive::ingest_generated(ar, gen, ingest_options());
  }
  return static_cast<double>(steady_ns() - t0) * 1e-9;
}

struct Pass {
  Meter meter;
  std::uint64_t logs = 0;
  std::vector<std::uint64_t> fingerprints;  ///< read-back shard per op
  std::vector<std::uint64_t> op_logs;
  Samples reads, writes;
};

Pass run_untraced(const std::filesystem::path& dir, CountingVfs& vfs, const Plan& plan) {
  archive::Archive ar = archive::Archive::open(dir, vfs);
  archive::Archive::ScanScratch scan;
  core::AnalyzeScratch analyze;
  Pass pass;
  const std::uint64_t per_pass = plan.drops.size();
  std::uint64_t pass_logs = 0;
  pass.meter.start();
  for (std::uint64_t i = 0; i < plan.ops.size(); ++i) {
    const std::uint64_t t0 = steady_ns();
    const wl::WorkloadGenerator gen(profile(), op_config(plan.seed(i)));
    const archive::IngestStats st = archive::ingest_generated(ar, gen, ingest_options());
    const std::uint64_t t1 = steady_ns();
    core::Analysis shard;
    ar.scan_partition(
        ar.manifest().partitions.back(),
        [&](const darshan::LogData& log) { shard.add(log, analyze); }, scan);
    const std::uint64_t fp = shard.fingerprint();
    const std::uint64_t t2 = steady_ns();
    pass.writes.add_ns(t1 - t0);
    pass.reads.add_ns(t2 - t1);
    pass.fingerprints.push_back(fp);
    pass.op_logs.push_back(st.logs);
    pass.logs += st.logs;
    pass_logs += st.logs;
    if ((i + 1) % per_pass == 0) {
      pass.meter.cut(per_pass, pass_logs);
      pass_logs = 0;
    }
  }
  return pass;
}

struct TracedWork {
  std::uint64_t jobs = 0, logs = 0, opens = 0, raw_bytes = 0, framed_bytes = 0;
  ScanTally scan;
};

Pass run_traced(const std::filesystem::path& dir, CountingVfs& vfs, const Plan& plan,
                Tracer& tr, TracedWork& work) {
  archive::Archive ar = archive::Archive::open(dir, vfs);
  const sim::JobExecutor executor(wl::machine_for(profile()));
  const archive::IngestOptions iopts = ingest_options();
  darshan::WriteOptions off = iopts.write_options;
  off.compress = false;
  std::vector<darshan::LogData> logs;  // one slot per log of an op, recycled across ops
  std::vector<std::size_t> write_spans;
  darshan::LogIoBuffers io, io_off;
  DecodeState decode;
  sim::ExecStats exec;
  Pass pass;
  vfs.attach(&tr);
  for (std::uint64_t i = 0; i < plan.ops.size(); ++i) {
    const std::size_t op = tr.begin_op(i);
    std::size_t n = 0;
    write_spans.clear();
    std::optional<archive::Archive::PartitionWriter> writer;
    std::uint64_t commit_gen = 0;
    {
      const Scope s(&tr, Layer::kBuild);
      writer.emplace(ar.begin_partition_at(ar.manifest().next_partition_id));
      commit_gen = ar.manifest().generation + 1;
    }
    {
      const Scope s(&tr, Layer::kGenerate);
      const wl::WorkloadGenerator gen(profile(), op_config(plan.seed(i)));
      gen.generate_bulk_range(0, kJobsPerOp, [&](const sim::JobSpec& spec) {
        if (n == logs.size()) logs.emplace_back();
        darshan::LogData& log = logs[n++];
        {
          const Scope e(&tr, Layer::kExecute);
          executor.execute_into(spec, log, &exec);
        }
        std::span<const std::byte> frame;
        {
          const Scope w(&tr, Layer::kDarshanWrite);
          frame = darshan::write_log_bytes_into(log, io, iopts.write_options);
          write_spans.push_back(w.index());
        }
        const Scope b(&tr, Layer::kBuild);
        writer->append_frame(log.job, frame);
        work.framed_bytes += frame.size();
      });
    }
    archive::Archive::PendingPartition pending;
    {
      const Scope s(&tr, Layer::kBuild);
      pending = writer->finish();
      pending.info.data_generation = commit_gen;
    }
    {
      const Scope s(&tr, Layer::kStage);
      ar.stage_partition_files(pending);
    }
    {
      const Scope s(&tr, Layer::kCommit);
      ar.commit_group({&pending, 1});
    }
    core::Analysis shard;
    replay_partition(ar, ar.manifest().partitions.back(), shard, decode, &tr, work.scan);
    {
      const Scope f(&tr, Layer::kCoreFingerprint);
      pass.fingerprints.push_back(shard.fingerprint());
    }
    tr.end(op);
    pass.op_logs.push_back(n);
    pass.logs += n;

    // Side measurement, outside the op: the same write call on the same
    // logs with compression off.  Deflate = compression on minus off.
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t t0 = steady_ns();
      const std::span<const std::byte> raw = darshan::write_log_bytes_into(logs[k], io_off, off);
      const double off_s = static_cast<double>(steady_ns() - t0) * 1e-9;
      work.raw_bytes += raw.size();
      tr.carve(write_spans[k], Layer::kDeflate, tr.duration_s(write_spans[k]) - off_s);
    }
  }
  vfs.attach(nullptr);
  work.jobs = plan.ops.size() * kJobsPerOp;
  work.logs = pass.logs;
  work.opens = exec.opens;
  return pass;
}

/// The oracle: reopen, deep-verify, check the log count, and match each op's
/// read-back against an in-memory analysis of the same generated logs.
/// Returns the verified op count.
std::uint64_t verify(const std::filesystem::path& dir, CountingVfs& vfs, const Plan& plan,
                     const Pass& pass, Report& r) {
  archive::Archive ar = archive::Archive::open(dir, vfs.uncounted());
  const archive::Archive::VerifyReport vr = ar.verify(true);
  if (!vr.ok()) r.fail("ingest: verify(true) reported " + vr.issues.front());

  // In-memory analysis of each distinct drop, straight from the executor.
  const sim::JobExecutor executor(wl::machine_for(profile()));
  darshan::LogData log;
  const auto in_memory = [&](std::uint64_t seed, std::uint64_t& n) {
    core::Analysis shard;
    const wl::WorkloadGenerator gen(profile(), op_config(seed));
    gen.generate_bulk_range(0, kJobsPerOp, [&](const sim::JobSpec& spec) {
      executor.execute_into(spec, log);
      shard.add(log);
      n += 1;
    });
    return shard.fingerprint();
  };
  std::uint64_t logs = 0;
  for (const std::uint64_t s : plan.warmup) in_memory(s, logs);
  std::vector<std::uint64_t> drop_fp(plan.drops.size()), drop_logs(plan.drops.size());
  for (std::size_t d = 0; d < plan.drops.size(); ++d) {
    drop_fp[d] = in_memory(plan.drops[d], drop_logs[d]);
  }
  std::uint64_t verified = 0;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const std::uint64_t d = plan.ops[i];
    logs += drop_logs[d];
    if (drop_fp[d] == pass.fingerprints[i] && drop_logs[d] == pass.op_logs[i]) verified += 1;
  }
  std::uint64_t archived = 0;
  for (const archive::PartitionInfo& p : ar.manifest().partitions) archived += p.log_count;
  if (archived != logs || vr.logs_checked != logs) {
    r.fail("ingest: archive holds " + std::to_string(archived) + " logs, expected " +
           std::to_string(logs));
    verified = 0;
  }
  if (verified != plan.ops.size()) {
    r.fail("ingest: " + std::to_string(plan.ops.size() - verified) + " ops failed the oracle");
  }
  return verified;
}

}  // namespace

Report run_ingest(const Args& args) {
  const Plan plan = make_plan(args);
  const std::filesystem::path dir = args.work_dir / "ingest";
  CountingVfs vfs;
  Report r;
  r.attempted = plan.ops.size();

  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) setups.push_back(setup(dir, vfs, plan));

  const VfsCounters before = vfs.counters();
  const Pass pass = run_untraced(dir, vfs, plan);
  const double rss = peak_rss_mb(vfs.peak_stored_bytes());
  const VfsCounters after = vfs.counters();

  const std::uint64_t verified = verify(dir, vfs, plan, pass, r);
  r.failed = r.attempted - verified;
  const std::uint64_t digest = dir_digest(vfs, dir);
  {
    const archive::Archive ar = archive::Archive::open(dir, vfs);
    r.counter("logs", pass.logs);
    r.counter("commits", after.commits - before.commits);
    r.counter("fsyncs", (after.fsyncs + after.dirsyncs) - (before.fsyncs + before.dirsyncs));
    r.counter("bytes_written", after.bytes_written - before.bytes_written);
    r.counter("bytes_read", after.bytes_read - before.bytes_read);
    r.counter("archive_digest", digest);

    if (!args.trace) {
      EndToEnd e;
      e.setup_s = median(setups);
      e.meter = pass.meter;
      e.peak_rss_mb = rss;
      e.ops = plan.ops.size();
      e.verified_ops = verified;
      e.reads = pass.reads;
      e.writes = pass.writes;
      e.stored_bytes = dir_bytes(vfs, dir);
      e.logical_log_bytes = logical_log_bytes(ar, vfs);
      add_end_to_end(r, e);
      return r;
    }
  }

  // Traced run: same seed, same op list, from an identical set-up.
  const std::filesystem::path tdir = args.work_dir / "ingest-traced";
  setup(tdir, vfs, plan);
  Tracer tr;
  TracedWork work;
  const VfsCounters tb = vfs.counters();
  const Pass traced = run_traced(tdir, vfs, plan, tr, work);
  const VfsCounters ta = vfs.counters();
  if (traced.fingerprints != pass.fingerprints || dir_digest(vfs, tdir) != digest) {
    r.fail("ingest: traced replay left a different archive than ingest_generated");
  }
  tr.write_tsv(args.work_dir / "spans-ingest.tsv");

  add_ledger(r, tr.ledger(), pass.meter.wall_s());
  r.metric("workload.jobs", static_cast<double>(work.jobs), "count");
  r.metric("iosim.logs", static_cast<double>(work.logs), "count");
  r.metric("iosim.opens", static_cast<double>(work.opens), "count");
  r.metric("darshan.raw_bytes", static_cast<double>(work.raw_bytes), "bytes");
  r.metric("darshan.framed_bytes", static_cast<double>(work.framed_bytes), "bytes");
  r.metric("darshan.frames_decoded", static_cast<double>(work.scan.frames), "count");
  r.metric("core.logs_added", static_cast<double>(work.scan.frames), "count");
  r.metric("archive.partitions_scanned", static_cast<double>(work.scan.partitions), "count");
  r.metric("archive.segment_bytes_read", static_cast<double>(work.scan.segment_bytes), "bytes");
  r.metric("archive.commits", static_cast<double>(ta.commits - tb.commits), "count");
  r.metric("util.vfs_bytes_written", static_cast<double>(ta.bytes_written - tb.bytes_written),
           "bytes");
  r.metric("util.vfs_bytes_read", static_cast<double>(ta.bytes_read - tb.bytes_read), "bytes");
  VfsCounters d;
  d.fsyncs = ta.fsyncs - tb.fsyncs;
  d.dirsyncs = ta.dirsyncs - tb.dirsyncs;
  d.commits = ta.commits - tb.commits;
  r.metric("util.vfs_fsyncs_per_commit", d.flushes_per_commit(), "ratio");
  r.metric("util.vfs_renames", static_cast<double>(ta.renames - tb.renames), "count");
  r.metric("archive.partitions_live",
           static_cast<double>(archive::Archive::open(tdir, vfs).manifest().partitions.size()),
           "count");
  return r;
}

}  // namespace perfbench
