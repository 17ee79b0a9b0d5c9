// nvp_perfbench — the end-to-end benchmark of the analysis engine, the nvpd
// service, the persistent store and the closed-loop monitor.
//
//   nvp_perfbench --workload design_study|nvpd_mixed|store_restart|
//                            monitor_drift
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. The last line of standard output
// is the result object {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the normal way to run it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nvp_perfbench --workload <design_study|nvpd_mixed|"
               "store_restart|monitor_drift> --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".bench_build/perfbench/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload")
      args.workload = value;
    else if (key == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds")
      args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace")
      args.trace = value == "1";
    else if (key == "--work-dir")
      args.work_dir = value;
    else if (key == "--restart-child")
      args.restart_dir = value;
    else
      return usage();
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return usage();
  // store_restart runs its restart phase in a fresh copy of this binary.
  args.self = std::filesystem::absolute(argv[0]).string();

  try {
    if (!args.restart_dir.empty())
      return perfbench::run_store_restart_child(args);
    if (args.workload == "design_study")
      return perfbench::run_design_study(args);
    if (args.workload == "nvpd_mixed") return perfbench::run_nvpd_mixed(args);
    if (args.workload == "store_restart")
      return perfbench::run_store_restart(args);
    if (args.workload == "monitor_drift")
      return perfbench::run_monitor_drift(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nvp_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
