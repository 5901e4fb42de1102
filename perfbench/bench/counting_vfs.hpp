// Counting VFS: the util::Vfs handed to every Archive and ArchiveService the
// benchmark opens.  It counts every call and keeps the files in memory.
//
// Flush policy: the archive's files live in this process's memory, the
// equivalent of keeping the archive on tmpfs.  fsync_file and sync_dir are
// counted but have nothing to flush, so fsyncs per commit stay exact while
// no run times the host's storage stack (on a disk-backed filesystem a
// replace-by-rename can start writeback, and a commit then measures the
// device, not the program).  Every other call does what the host
// filesystem would: atomic rename, sorted listings, whole-file reads.
//
// When a tracer is attached, each call made on the tracing thread becomes a
// child span of whatever layer call is open: manifest writes count as
// archive.commit, other writes as archive.stage, reads as archive.scan (or
// archive.compact inside a compaction), removals as archive.compact.
//
// Thread safety: the store is guarded by a shared mutex (the query engine
// reads from several threads); counters are atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tracer.hpp"
#include "util/vfs.hpp"

namespace perfbench {

struct VfsCounters {
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t fsyncs = 0;    ///< file fsyncs requested
  std::uint64_t dirsyncs = 0;  ///< directory fsyncs requested
  std::uint64_t renames = 0;
  std::uint64_t commits = 0;   ///< renames onto the manifest

  /// File plus directory flushes per manifest commit.
  double flushes_per_commit() const {
    return commits ? static_cast<double>(fsyncs + dirsyncs) / static_cast<double>(commits) : 0;
  }
};

class CountingVfs final : public mlio::util::Vfs {
 public:
  CountingVfs();
  CountingVfs(const CountingVfs&) = delete;
  CountingVfs& operator=(const CountingVfs&) = delete;

  /// A second handle on the same files that neither counts nor traces, for
  /// the benchmark's own checks (the oracle, size and digest helpers).
  CountingVfs& uncounted() { return *uncounted_; }

  /// Record spans into `tracer` for calls made on the calling thread; null
  /// detaches.
  void attach(Tracer* tracer);
  VfsCounters counters() const;

  /// Most bytes the files have held at once, over the handle's life: the
  /// memory a disk-backed archive would keep in the page cache instead.
  std::uint64_t peak_stored_bytes() const { return store_->peak.load(std::memory_order_relaxed); }

  /// Drop every file under `dir` and recreate it empty.
  void reset_dir(const std::filesystem::path& dir);
  /// (file name, bytes) of every file directly in `dir`, sorted by name.
  std::vector<std::pair<std::string, std::shared_ptr<const std::vector<std::byte>>>> files(
      const std::filesystem::path& dir) const;

  std::vector<std::byte> read_file(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  bool remove(const std::filesystem::path& path) override;
  std::vector<std::filesystem::path> list_dir(const std::filesystem::path& dir) override;
  WriteFile open_write(const std::filesystem::path& tmp) override;
  void write(WriteFile& f, std::span<const std::byte> data) override;
  void fsync_file(WriteFile& f) override;
  void close_file(WriteFile& f) noexcept override;
  void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
  void sync_dir(const std::filesystem::path& dir) override;

 private:
  using Bytes = std::vector<std::byte>;
  struct Store {
    mutable std::shared_mutex mu;
    std::map<std::string, std::shared_ptr<Bytes>> files;  ///< by lexically normal path
    std::set<std::string> dirs;
    std::map<int, std::shared_ptr<Bytes>> open;  ///< write handles -> file being written
    int next_fd = 1;
    std::atomic<std::uint64_t> bytes{0};  ///< held by `files` now
    std::atomic<std::uint64_t> peak{0};   ///< most `bytes` has been

    void grow(std::uint64_t n) {
      const std::uint64_t now = bytes.fetch_add(n, std::memory_order_relaxed) + n;
      std::uint64_t p = peak.load(std::memory_order_relaxed);
      while (now > p && !peak.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
      }
    }
    void shrink(std::uint64_t n) { bytes.fetch_sub(n, std::memory_order_relaxed); }
  };
  CountingVfs(std::shared_ptr<Store> store, bool counted);

  enum class Kind { kRead, kWrite, kRemove };
  /// Tracer to record into, or null when not tracing this call.
  Tracer* tracing() const;
  Layer layer_for(Kind kind, const std::filesystem::path& path) const;
  void count(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    if (counted_) c.fetch_add(n, std::memory_order_relaxed);
  }

  std::shared_ptr<Store> store_;
  bool counted_ = true;
  std::unique_ptr<CountingVfs> uncounted_;
  Tracer* tracer_ = nullptr;
  std::thread::id tracer_thread_;

  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> dirsyncs_{0};
  std::atomic<std::uint64_t> renames_{0};
  std::atomic<std::uint64_t> commits_{0};
};

}  // namespace perfbench
