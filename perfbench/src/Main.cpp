//===- perfbench/src/Main.cpp - The repository benchmark ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload road_batch|social_batch|live_routing|live_depots
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one workload in this process and prints one JSON line with every
// metric (value, unit, sample count), the run's configuration and the
// attempted/failed operation counts. With --trace 1 the run records spans
// around every call it makes into the library, reports the per-layer
// ledger, and writes the spans to --trace-out as JSON lines. Exit status
// is 1 when any answer disagrees with its oracle, 2 on bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <omp.h>
#include <string>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload road_batch|social_batch|live_routing|"
               "live_depots --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  for (int I = 1; I + 1 < argc; I += 2) {
    const std::string Flag = argv[I];
    const char *Value = argv[I + 1];
    if (Flag == "--workload")
      Cfg.Workload = Value;
    else if (Flag == "--seed")
      Cfg.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Cfg.Seconds = std::atof(Value);
    else if (Flag == "--trace")
      Cfg.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--trace-out")
      Cfg.TraceOut = Value;
    else
      return usage(argv[0]);
  }
  if (argc % 2 == 0 || Cfg.Seconds <= 0)
    return usage(argv[0]);

  void (*Run)(const RunConfig &, Report &) = nullptr;
  if (Cfg.Workload == "road_batch")
    Run = runRoadBatch;
  else if (Cfg.Workload == "social_batch")
    Run = runSocialBatch;
  else if (Cfg.Workload == "live_routing")
    Run = runLiveRouting;
  else if (Cfg.Workload == "live_depots")
    Run = runLiveDepots;
  else
    return usage(argv[0]);

  Cfg.Threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  omp_set_num_threads(Cfg.Threads);

  Report R;
  R.config("seed", static_cast<double>(Cfg.Seed));
  R.config("seconds", Cfg.Seconds);
  R.config("nproc", Cfg.Threads);
  // Cache sizes to set the working sets against (0 when unknown).
  R.config("l2_mib_per_core", static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)) /
                         (1 << 20));
  R.config("llc_mib", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) /
                          (1 << 20));
  Run(Cfg, R);

  if (Cfg.Trace) {
    // Layers this workload does not exercise report 0 with no samples.
    for (const auto &[Name, Unit] : layerMetricTable())
      if (!R.metrics().count(Name))
        R.metric(Name, 0, Unit, 0, "layer not exercised by this workload");
    const auto Self = Tracer::get().selfTimes();
    for (const auto &[Name, Ms] : Self)
      R.metric("self_ms." + Name, Ms, "ms", 1);
    if (!Cfg.TraceOut.empty() && !Tracer::get().write(Cfg.TraceOut))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   Cfg.TraceOut.c_str());
  }
  R.print(Cfg.Workload, Cfg.Trace);
  return R.correct() ? 0 : 1;
}
