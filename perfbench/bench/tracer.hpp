// Span recorder for the traced replay.
//
// A span is one call into a layer: its layer, start and end (steady clock,
// ns since the tracer started), the span that caused it, and the op it
// belongs to.  Spans are kept in memory and written out once at the end.
// A layer's self time is a span's duration minus the part its child spans
// cover; the op's own self time (the root span) is the residual no layer
// claims, so the per-layer self times plus the residual equal the op wall
// time exactly.
//
// Carves move part of a closed span's self time to another layer.  They
// exist for work that runs inside a layer call but cannot be timed from
// outside it (deflate inside a darshan write, a shard fold inside a service
// get); the amount comes from a side measurement made outside every op, and
// is capped at the span's remaining self time, so carving never changes the
// total.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp,  ///< root span of one op; its self time is the residual
  kGenerate,
  kExecute,
  kDarshanWrite,
  kDarshanRead,
  kDeflate,
  kInflate,
  kCoreAdd,
  kCoreMerge,
  kCoreFingerprint,
  kBuild,
  kStage,
  kCommit,
  kScan,
  kCompact,
  kServiceGet,
  kServiceGetWindow,
  kServiceAppend,
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of a layer, e.g. "darshan.write" (self time is reported as
/// "<name>_s"); the root span is "trace.residual".
std::string_view layer_name(Layer layer);

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  Tracer();

  /// Open a span under the innermost open one; returns its index.
  std::size_t begin(Layer layer);
  /// Close span `idx`, which must be the innermost open span.
  void end(std::size_t idx);
  /// Open the root span of op `op` (no span may be open).
  std::size_t begin_op(std::uint64_t op);

  /// Layer of the innermost open span; kOp when none is open.
  Layer current() const;
  bool in_op() const { return !stack_.empty(); }

  /// Move up to `seconds` of span `idx`'s self time to `to`.
  void carve(std::size_t idx, Layer to, double seconds);
  /// Duration of a closed span in seconds.
  double duration_s(std::size_t idx) const;

  struct Ledger {
    std::array<double, kLayerCount> self_s{};  ///< [kOp] is the residual
    double op_wall_s = 0;                      ///< sum of root-span durations
    std::uint64_t ops = 0;
    std::uint64_t spans = 0;
  };
  Ledger ledger() const;

  /// One line per span: op, layer, parent index (-1 for roots), start and
  /// end in ns since the tracer started.
  void write_tsv(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t op = 0;
    std::int32_t parent = -1;
    Layer layer = Layer::kOp;
  };
  struct Carve {
    std::size_t span = 0;
    Layer to = Layer::kOp;
    double seconds = 0;
  };

  std::uint64_t origin_ns_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::vector<Carve> carves_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, Layer layer) : t_(t), idx_(t != nullptr ? t->begin(layer) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t index() const { return idx_; }

 private:
  Tracer* t_;
  std::size_t idx_;
};

}  // namespace perfbench
