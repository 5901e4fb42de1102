// Shared pieces of the benchmark binary: arguments, latency samples, the
// report every workload fills, and measurement helpers that read the
// archive directory without going through the counted VFS.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "counting_vfs.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the size of the fixed op list (ops = nominal rate x seconds); a
  /// run always completes its whole list and is never cut by a timer.
  unsigned seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch root for this run's archives
};

/// Per-op latencies of one kind (read or write), in milliseconds.
class Samples {
 public:
  void add_ns(std::uint64_t ns) { ms_.push_back(static_cast<double>(ns) * 1e-6); }
  void merge(const Samples& o) { ms_.insert(ms_.end(), o.ms_.begin(), o.ms_.end()); }
  std::size_t size() const { return ms_.size(); }
  /// Nearest-rank percentile, pct in (0, 100].
  double percentile(double pct) const;
  /// The highest percentile of {50, 75, 90, 95, 99, 99.9, 99.99} that has
  /// at least ten samples beyond it (p50 when there are fewer samples).
  struct Tail {
    double pct = 50;
    double value = 0;
    std::size_t beyond = 0;
  };
  Tail tail() const;

 private:
  std::vector<double> ms_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the verdict, the metrics of the run's
/// mode, and the machine-independent counters the self-check compares.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void counter(std::string name, std::uint64_t value) {
    counters.emplace_back(std::move(name), value);
  }
  /// Record a failed check (printed to stderr) and mark the run incorrect.
  void fail(const std::string& what);
};

/// Splits a measured phase into consecutive chunks of ops.  Rates are
/// reported as the median over chunks, so a transient stall on a shared host
/// moves one chunk rather than the result.
class Meter {
 public:
  struct Chunk {
    double wall_s = 0;
    double cpu_s = 0;  ///< process user+sys
    std::uint64_t ops = 0;
    std::uint64_t logs = 0;
  };
  /// Begin the first chunk.
  void start();
  /// Close the current chunk with the work done in it; the next one begins.
  void cut(std::uint64_t ops, std::uint64_t logs);
  /// Leave out of the current chunk the benchmark's own work just done
  /// (started at `t0_ns`, having used `cpu0` process CPU seconds before).
  void exclude(std::uint64_t t0_ns, double cpu0);
  const std::vector<Chunk>& chunks() const { return chunks_; }
  double wall_s() const;

 private:
  std::uint64_t t0_ = 0;
  double cpu0_ = 0;
  double excluded_wall_s_ = 0;
  double excluded_cpu_s_ = 0;
  std::vector<Chunk> chunks_;
};

/// The quantities behind the end-to-end metrics of one untraced run.
struct EndToEnd {
  double setup_s = 0;       ///< median of the run's set-ups
  Meter meter;              ///< measured phase, in chunks
  double peak_rss_mb = 0;   ///< peak_rss_mb() at the end of the measured phase
  std::uint64_t ops = 0;
  std::uint64_t verified_ops = 0;
  Samples reads;
  Samples writes;
  std::uint64_t stored_bytes = 0;       ///< archive bytes
  std::uint64_t logical_log_bytes = 0;  ///< uncompressed serialized log bytes held
};

/// Append the eleven end-to-end metrics, and print the tail percentiles
/// with their sample counts.
void add_end_to_end(Report& r, const EndToEnd& e);

/// Per-layer self times from a traced pass, plus the residual, op wall time,
/// and tracing overhead (traced op wall over untraced op wall).
void add_ledger(Report& r, const Tracer::Ledger& l, double untraced_wall_s);

/// Every per-layer metric name, in BENCHMARK.json order; a workload reports
/// 0 for layers it does not touch.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// Keep only `names`' metrics, in that order, filling absent ones with 0.
void normalize_per_layer(Report& r);

double median(std::vector<double> v);
double cpu_seconds();
/// The process's high-water RSS less `held_bytes`: the peak of what the
/// benchmark keeps in memory for the program but a deployment would not
/// (the in-memory archive, which would sit in the page cache, and the
/// serve feed).  Both are subtracted at their own peaks, which for a
/// growing archive coincide with the RSS peak at the end of the run.
double peak_rss_mb(std::uint64_t held_bytes);
unsigned nproc();
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t op);

/// Bytes of the files directly in `dir`.
std::uint64_t dir_bytes(const CountingVfs& vfs, const std::filesystem::path& dir);
/// FNV-1a over sorted (file name, size, CRC-32) of every file in `dir`:
/// equal digests mean byte-identical archives.
std::uint64_t dir_digest(const CountingVfs& vfs, const std::filesystem::path& dir);
/// Uncompressed serialized size (frame header + body) of every log the
/// manifest references, read from the frame headers in the segments
/// (uncounted reads).
std::uint64_t logical_log_bytes(const mlio::archive::Archive& ar, CountingVfs& vfs);

}  // namespace perfbench
