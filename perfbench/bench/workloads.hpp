// The three workloads.  Each runs its own set-up, replays its fixed op list
// untraced (end-to-end metrics) or untraced then traced (per-layer ledger),
// checks every answer, and returns a Report.
#pragma once

#include "common.hpp"

namespace perfbench {

Report run_ingest(const Args& args);
Report run_scan(const Args& args);
Report run_serve(const Args& args);

}  // namespace perfbench
