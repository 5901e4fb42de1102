#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "archive/manifest.hpp"
#include "util/compress.hpp"
#include "util/rng.hpp"

namespace perfbench {

double Samples::percentile(double pct) const {
  if (ms_.empty()) return 0;
  std::vector<double> v = ms_;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t k = std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

Samples::Tail Samples::tail() const {
  static constexpr double kLadder[] = {50, 75, 90, 95, 99, 99.9, 99.99};
  Tail t;
  const auto n = static_cast<double>(ms_.size());
  for (const double pct : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    const std::size_t beyond = ms_.size() - std::min(rank, ms_.size());
    if (pct == 50 || beyond >= 10) {
      t.pct = pct;
      t.beyond = beyond;
    }
    if (beyond < 10) break;
  }
  t.value = percentile(t.pct);
  return t;
}

void Report::fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  correct = false;
}

void Meter::start() {
  t0_ = steady_ns();
  cpu0_ = cpu_seconds();
}

void Meter::cut(std::uint64_t ops, std::uint64_t logs) {
  const std::uint64_t t = steady_ns();
  const double cpu = cpu_seconds();
  chunks_.push_back({static_cast<double>(t - t0_) * 1e-9 - excluded_wall_s_,
                     cpu - cpu0_ - excluded_cpu_s_, ops, logs});
  t0_ = t;
  cpu0_ = cpu;
  excluded_wall_s_ = excluded_cpu_s_ = 0;
}

void Meter::exclude(std::uint64_t t0_ns, double cpu0) {
  excluded_wall_s_ += static_cast<double>(steady_ns() - t0_ns) * 1e-9;
  excluded_cpu_s_ += cpu_seconds() - cpu0;
}

double Meter::wall_s() const {
  double w = 0;
  for (const Chunk& c : chunks_) w += c.wall_s;
  return w;
}

void add_end_to_end(Report& r, const EndToEnd& e) {
  std::vector<double> ops_rate, logs_rate, cpu_per_op;
  for (const Meter::Chunk& c : e.meter.chunks()) {
    const double wall = std::max(c.wall_s, 1e-9);
    ops_rate.push_back(static_cast<double>(c.ops) / wall);
    logs_rate.push_back(static_cast<double>(c.logs) / wall);
    cpu_per_op.push_back(c.cpu_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(c.ops, 1)));
  }
  const Samples::Tail rt = e.reads.tail();
  const Samples::Tail wt = e.writes.tail();
  std::printf("measured %llu ops in %zu chunks, %.3f s; ops/s per chunk:",
              static_cast<unsigned long long>(e.ops), e.meter.chunks().size(), e.meter.wall_s());
  for (const double v : ops_rate) std::printf(" %.4g", v);
  std::printf("\n");
  std::printf("read_ms_tail = p%g with %zu of %zu samples beyond it\n", rt.pct, rt.beyond,
              e.reads.size());
  std::printf("write_ms_tail = p%g with %zu of %zu samples beyond it\n", wt.pct, wt.beyond,
              e.writes.size());
  r.metric("setup_s", e.setup_s, "s");
  r.metric("ops_per_s", median(ops_rate), "1/s");
  r.metric("logs_per_s", median(logs_rate), "1/s");
  r.metric("read_ms_p50", e.reads.percentile(50), "ms");
  r.metric("read_ms_tail", rt.value, "ms");
  r.metric("write_ms_p50", e.writes.percentile(50), "ms");
  r.metric("write_ms_tail", wt.value, "ms");
  r.metric("cpu_per_op_ms", median(cpu_per_op), "ms");
  r.metric("peak_rss_mb", e.peak_rss_mb, "MB");
  r.metric("stored_bytes_per_log_byte",
           e.logical_log_bytes ? static_cast<double>(e.stored_bytes) /
                                     static_cast<double>(e.logical_log_bytes)
                               : 0,
           "ratio");
  r.metric("success_rate",
           static_cast<double>(e.verified_ops) /
               static_cast<double>(std::max<std::uint64_t>(e.ops, 1)),
           "ratio");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"workload.generate_s", "s"},
      {"workload.jobs", "count"},
      {"iosim.execute_s", "s"},
      {"iosim.logs", "count"},
      {"iosim.opens", "count"},
      {"darshan.write_s", "s"},
      {"darshan.raw_bytes", "bytes"},
      {"darshan.framed_bytes", "bytes"},
      {"darshan.read_s", "s"},
      {"darshan.frames_decoded", "count"},
      {"util.deflate_s", "s"},
      {"util.inflate_s", "s"},
      {"util.vfs_bytes_written", "bytes"},
      {"util.vfs_bytes_read", "bytes"},
      {"util.vfs_fsyncs_per_commit", "ratio"},
      {"util.vfs_renames", "count"},
      {"core.add_s", "s"},
      {"core.logs_added", "count"},
      {"core.merge_s", "s"},
      {"core.merges", "count"},
      {"core.fingerprint_s", "s"},
      {"archive.build_s", "s"},
      {"archive.stage_s", "s"},
      {"archive.commit_s", "s"},
      {"archive.commits", "count"},
      {"archive.scan_s", "s"},
      {"archive.partitions_scanned", "count"},
      {"archive.segment_bytes_read", "bytes"},
      {"archive.compact_s", "s"},
      {"archive.compactions", "count"},
      {"archive.bytes_rewritten_per_ingested_byte", "ratio"},
      {"archive.partitions_live", "count"},
      {"service.get_s", "s"},
      {"service.get_window_s", "s"},
      {"service.append_s", "s"},
      {"service.memo_hit_rate", "ratio"},
      {"service.shard_hit_rate", "ratio"},
      {"service.shards_resolved_per_get", "ratio"},
      {"service.rescans", "count"},
      {"service.gc_pending_end", "count"},
      {"trace.residual_s", "s"},
      {"trace.op_wall_s", "s"},
      {"trace.ops", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kNames;
}

void add_ledger(Report& r, const Tracer::Ledger& l, double untraced_wall_s) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    r.metric(std::string(layer_name(static_cast<Layer>(i))) + "_s", l.self_s[i], "s");
  }
  r.metric("trace.op_wall_s", l.op_wall_s, "s");
  r.metric("trace.ops", static_cast<double>(l.ops), "count");
  r.metric("trace.overhead_ratio", untraced_wall_s > 0 ? l.op_wall_s / untraced_wall_s : 0,
           "ratio");
  double sum = 0;
  for (const double s : l.self_s) sum += s;
  std::printf("ledger: %llu ops, %llu spans, op wall %.4f s = layer self times + residual "
              "%.4f s (difference %.2e s)\n",
              static_cast<unsigned long long>(l.ops), static_cast<unsigned long long>(l.spans),
              l.op_wall_s, sum, l.op_wall_s - sum);
}

void normalize_per_layer(Report& r) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    out.push_back({name, it != r.metrics.end() ? it->value : 0.0, unit});
  }
  r.metrics = std::move(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb(std::uint64_t held_bytes) {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const double peak = static_cast<double>(u.ru_maxrss) * 1024.0;  // ru_maxrss is KiB on Linux
  return std::max(0.0, peak - static_cast<double>(held_bytes)) / (1024.0 * 1024.0);
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t op) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + op;
  return mlio::util::splitmix64(s);
}

std::uint64_t dir_bytes(const CountingVfs& vfs, const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& f : vfs.files(dir)) total += f.second->size();
  return total;
}

std::uint64_t dir_digest(const CountingVfs& vfs, const std::filesystem::path& dir) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& [name, bytes] : vfs.files(dir)) {
    for (const char c : name) mix(static_cast<unsigned char>(c));
    mix(bytes->size());
    mix(mlio::util::crc32(*bytes));
  }
  return h;
}

std::uint64_t logical_log_bytes(const mlio::archive::Archive& ar, CountingVfs& counted) {
  // Frame header: u32 magic, u16 version, u16 flags, u32 crc, u64 body_size,
  // u64 stored_size (darshan/log_format.hpp).
  constexpr std::uint64_t kHeader = 28;
  constexpr std::uint64_t kBodySizeAt = 12;
  mlio::util::Vfs& vfs = counted.uncounted();
  std::uint64_t total = 0;
  for (const mlio::archive::PartitionInfo& p : ar.manifest().partitions) {
    const std::vector<std::byte> seg = vfs.read_file(ar.segment_path(p.id));
    const std::vector<mlio::archive::IndexEntry> entries =
        mlio::archive::read_index_bytes(vfs.read_file(ar.index_path(p.id)), p.id);
    for (const mlio::archive::IndexEntry& e : entries) {
      if (e.offset + kHeader > seg.size()) throw std::runtime_error("frame beyond its segment");
      std::uint64_t body = 0;
      std::memcpy(&body, seg.data() + e.offset + kBodySizeAt, sizeof body);  // little-endian host
      total += kHeader + body;
    }
  }
  return total;
}

}  // namespace perfbench
