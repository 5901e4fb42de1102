#include "counting_vfs.hpp"

#include <mutex>

#include "util/error.hpp"

namespace perfbench {

namespace {

std::string key(const std::filesystem::path& p) { return p.lexically_normal().string(); }

bool is_manifest(const std::filesystem::path& path) {
  return path.filename().string().rfind("manifest", 0) == 0;
}

}  // namespace

CountingVfs::CountingVfs() : CountingVfs(std::make_shared<Store>(), true) {}

CountingVfs::CountingVfs(std::shared_ptr<Store> store, bool counted)
    : store_(std::move(store)), counted_(counted) {
  if (counted_) uncounted_.reset(new CountingVfs(store_, false));
}

void CountingVfs::attach(Tracer* tracer) {
  tracer_ = tracer;
  tracer_thread_ = std::this_thread::get_id();
}

Tracer* CountingVfs::tracing() const {
  return tracer_ != nullptr && tracer_->in_op() && std::this_thread::get_id() == tracer_thread_
             ? tracer_
             : nullptr;
}

Layer CountingVfs::layer_for(Kind kind, const std::filesystem::path& path) const {
  switch (kind) {
    case Kind::kRemove:
      return Layer::kCompact;
    case Kind::kRead:
      return tracer_->current() == Layer::kCompact ? Layer::kCompact : Layer::kScan;
    case Kind::kWrite:
      break;
  }
  return is_manifest(path) ? Layer::kCommit : Layer::kStage;
}

VfsCounters CountingVfs::counters() const {
  constexpr auto r = std::memory_order_relaxed;
  VfsCounters c;
  c.bytes_written = bytes_written_.load(r);
  c.bytes_read = bytes_read_.load(r);
  c.fsyncs = fsyncs_.load(r);
  c.dirsyncs = dirsyncs_.load(r);
  c.renames = renames_.load(r);
  c.commits = commits_.load(r);
  return c;
}

void CountingVfs::reset_dir(const std::filesystem::path& dir) {
  const std::string d = key(dir);
  const std::string prefix = d + "/";
  const std::unique_lock lock(store_->mu);
  std::erase_if(store_->files, [&](const auto& kv) {
    if (kv.first.rfind(prefix, 0) != 0) return false;
    store_->shrink(kv.second->size());
    return true;
  });
  std::erase_if(store_->dirs, [&](const std::string& s) { return s.rfind(prefix, 0) == 0; });
  store_->dirs.insert(d);
}

std::vector<std::pair<std::string, std::shared_ptr<const std::vector<std::byte>>>>
CountingVfs::files(const std::filesystem::path& dir) const {
  const std::string d = key(dir);
  std::vector<std::pair<std::string, std::shared_ptr<const Bytes>>> out;
  const std::shared_lock lock(store_->mu);
  for (const auto& [path, bytes] : store_->files) {
    const std::filesystem::path p(path);
    if (key(p.parent_path()) == d) out.emplace_back(p.filename().string(), bytes);
  }
  return out;  // std::map order: sorted by path, hence by name within dir
}

std::vector<std::byte> CountingVfs::read_file(const std::filesystem::path& path) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kRead, path) : Layer::kOp);
  std::shared_ptr<Bytes> bytes;
  {
    const std::shared_lock lock(store_->mu);
    const auto it = store_->files.find(key(path));
    if (it == store_->files.end()) throw mlio::util::IoError("cannot open " + path.string());
    bytes = it->second;
  }
  count(bytes_read_, bytes->size());
  return *bytes;  // files are replaced, never modified, once published
}

bool CountingVfs::exists(const std::filesystem::path& path) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kRead, path) : Layer::kOp);
  const std::string k = key(path);
  const std::shared_lock lock(store_->mu);
  return store_->files.count(k) != 0 || store_->dirs.count(k) != 0;
}

void CountingVfs::create_directories(const std::filesystem::path& path) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kWrite, path) : Layer::kOp);
  const std::unique_lock lock(store_->mu);
  for (std::filesystem::path p = path.lexically_normal(); !p.empty() && p != p.root_path();
       p = p.parent_path()) {
    store_->dirs.insert(key(p));
  }
}

bool CountingVfs::remove(const std::filesystem::path& path) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kRemove, path) : Layer::kOp);
  const std::unique_lock lock(store_->mu);
  const auto it = store_->files.find(key(path));
  if (it == store_->files.end()) return false;
  store_->shrink(it->second->size());
  store_->files.erase(it);
  return true;
}

std::vector<std::filesystem::path> CountingVfs::list_dir(const std::filesystem::path& dir) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kRead, dir) : Layer::kOp);
  std::vector<std::filesystem::path> out;
  for (const auto& f : files(dir)) out.push_back(dir / f.first);
  return out;
}

CountingVfs::WriteFile CountingVfs::open_write(const std::filesystem::path& tmp) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kWrite, tmp) : Layer::kOp);
  auto bytes = std::make_shared<Bytes>();
  WriteFile f;
  f.path = tmp;
  const std::unique_lock lock(store_->mu);
  if (!store_->dirs.count(key(tmp.parent_path()))) {
    throw mlio::util::IoError("cannot create " + tmp.string() + ": no such directory");
  }
  f.fd = store_->next_fd++;
  store_->open.emplace(f.fd, bytes);
  std::shared_ptr<Bytes>& slot = store_->files[key(tmp)];
  if (slot) store_->shrink(slot->size());
  slot = std::move(bytes);
  return f;
}

void CountingVfs::write(WriteFile& f, std::span<const std::byte> data) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kWrite, f.path) : Layer::kOp);
  std::shared_ptr<Bytes> bytes;
  {
    const std::shared_lock lock(store_->mu);
    const auto it = store_->open.find(f.fd);
    if (it == store_->open.end()) throw mlio::util::IoError("write to a closed file");
    bytes = it->second;
  }
  bytes->insert(bytes->end(), data.begin(), data.end());  // only its writer sees it
  store_->grow(data.size());
  count(bytes_written_, data.size());
}

void CountingVfs::fsync_file(WriteFile& f) {
  (void)f;  // counted; memory has nothing to flush (see the header)
  count(fsyncs_);
}

void CountingVfs::close_file(WriteFile& f) noexcept {
  const std::unique_lock lock(store_->mu);
  store_->open.erase(f.fd);
  f.fd = -1;
}

void CountingVfs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
  Tracer* t = tracing();
  const Scope span(t, t ? layer_for(Kind::kWrite, to) : Layer::kOp);
  {
    const std::unique_lock lock(store_->mu);
    const auto it = store_->files.find(key(from));
    if (it == store_->files.end()) {
      throw mlio::util::IoError("rename: no such file " + from.string());
    }
    std::shared_ptr<Bytes> bytes = std::move(it->second);
    store_->files.erase(it);
    std::shared_ptr<Bytes>& slot = store_->files[key(to)];
    if (slot) store_->shrink(slot->size());  // replaced
    slot = std::move(bytes);
  }
  count(renames_);
  if (is_manifest(to)) count(commits_);
}

void CountingVfs::sync_dir(const std::filesystem::path& dir) {
  (void)dir;  // counted; nothing to flush
  count(dirsyncs_);
}

}  // namespace perfbench
