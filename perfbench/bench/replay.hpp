// The read path decomposed into its public layer calls, for traced replays
// and side measurements: the mirror of Archive::scan_partition feeding
// core::Analysis::add, with each call timed (and spanned when a tracer is
// given).
//
//   archive.scan   read segment + index through the archive's VFS, check the
//                  segment CRC and the index count
//   darshan.read   decode one frame: read_log_frame_body (util.inflate:
//                  header check, inflate, body CRC) then read_log_body_into
//   core.add       Analysis::add of the decoded log
#pragma once

#include <cstdint>

#include "archive/archive.hpp"
#include "core/analysis.hpp"
#include "darshan/log_format.hpp"
#include "tracer.hpp"

namespace perfbench {

struct DecodeState {
  mlio::darshan::LogIoBuffers io;
  mlio::darshan::LogData log;
  mlio::core::AnalyzeScratch analyze;
};

/// Work and time of replayed partition scans.  Times are wall seconds
/// measured around each call: `scan_s` excludes the decode and add calls
/// it makes, `read_s` excludes the inflate stage.
struct ScanTally {
  std::uint64_t partitions = 0;
  std::uint64_t frames = 0;
  std::uint64_t segment_bytes = 0;
  double scan_s = 0;
  double read_s = 0;
  double inflate_s = 0;
  double add_s = 0;

  void merge(const ScanTally& o) {
    partitions += o.partitions;
    frames += o.frames;
    segment_bytes += o.segment_bytes;
    scan_s += o.scan_s;
    read_s += o.read_s;
    inflate_s += o.inflate_s;
    add_s += o.add_s;
  }
};

/// Replay partition `p` of `ar` into `shard` (ingest order, so the shard is
/// bit-identical to the one query_archive builds).  Throws FormatError on a
/// corrupt segment or index, like scan_partition.
void replay_partition(const mlio::archive::Archive& ar, const mlio::archive::PartitionInfo& p,
                      mlio::core::Analysis& shard, DecodeState& st, Tracer* t, ScanTally& tally);

}  // namespace perfbench
