// perfbench: end-to-end and per-layer benchmark of the mlio stack.
//
//   perfbench --workload ingest|scan|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Prints human-readable lines, then the counters line the self-check
// compares, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|scan|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    else if (flag == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--work-dir") a.work_dir = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.seconds == 0) usage("--seconds must be at least 1");
  if (a.work_dir.empty()) usage("--work-dir is required");
  return a;
}

void print_json(const perfbench::Report& r) {
  std::printf("counters: {");
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", r.counters[i].first.c_str(),
                static_cast<unsigned long long>(r.counters[i].second));
  }
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Report report;
  try {
    if (args.workload == "ingest") report = perfbench::run_ingest(args);
    else if (args.workload == "scan") report = perfbench::run_scan(args);
    else if (args.workload == "serve") report = perfbench::run_serve(args);
    else usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) perfbench::normalize_per_layer(report);
  if (report.failed > 0) report.correct = false;
  print_json(report);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
