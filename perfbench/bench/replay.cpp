#include "replay.hpp"

#include <string>

#include "archive/manifest.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {
double since_s(std::uint64_t t0) { return static_cast<double>(steady_ns() - t0) * 1e-9; }
}  // namespace

void replay_partition(const mlio::archive::Archive& ar, const mlio::archive::PartitionInfo& p,
                      mlio::core::Analysis& shard, DecodeState& st, Tracer* t, ScanTally& tally) {
  using mlio::util::FormatError;
  const std::string label = "partition " + std::to_string(p.id);
  const Scope scan(t, Layer::kScan);
  const std::uint64_t t_scan = steady_ns();
  double children_s = 0;

  const std::vector<std::byte> seg = ar.vfs().read_file(ar.segment_path(p.id));
  if (seg.size() != p.segment_bytes || mlio::util::crc32(seg) != p.segment_crc) {
    throw FormatError(label + ": segment size or CRC mismatch");
  }
  const std::vector<mlio::archive::IndexEntry> entries =
      mlio::archive::read_index_bytes(ar.vfs().read_file(ar.index_path(p.id)), p.id);
  if (entries.size() != p.log_count) throw FormatError(label + ": index count mismatch");

  for (const mlio::archive::IndexEntry& e : entries) {
    if (e.offset < mlio::archive::kSegmentHeaderBytes || e.offset > seg.size() ||
        e.size > seg.size() - e.offset) {
      throw FormatError(label + ": index entry out of bounds");
    }
    const std::span<const std::byte> frame(seg.data() + e.offset, e.size);
    {
      const Scope read(t, Layer::kDarshanRead);
      const std::uint64_t t0 = steady_ns();
      std::span<const std::byte> body;
      double inflate_s = 0;
      {
        const Scope inflate(t, Layer::kInflate);
        const std::uint64_t ti = steady_ns();
        body = mlio::darshan::read_log_frame_body(frame, st.io);
        inflate_s = since_s(ti);
      }
      mlio::darshan::read_log_body_into(body, st.io, st.log);
      const double total = since_s(t0);
      children_s += total;
      tally.inflate_s += inflate_s;
      tally.read_s += total - inflate_s;
    }
    {
      const Scope add(t, Layer::kCoreAdd);
      const std::uint64_t t0 = steady_ns();
      shard.add(st.log, st.analyze);
      const double dt = since_s(t0);
      children_s += dt;
      tally.add_s += dt;
    }
    tally.frames += 1;
  }
  tally.partitions += 1;
  tally.segment_bytes += seg.size();
  tally.scan_s += since_s(t_scan) - children_s;
}

}  // namespace perfbench
