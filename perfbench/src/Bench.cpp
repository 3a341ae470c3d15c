//===- perfbench/src/Bench.cpp - Samples, spans and the result report -----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <sys/resource.h>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

const std::vector<double> &Samples::sorted() const {
  if (Sorted.size() != Values.size()) {
    Sorted = Values;
    std::sort(Sorted.begin(), Sorted.end());
  }
  return Sorted;
}

namespace {
/// 0-based nearest-rank index of percentile \p P among \p N samples.
size_t rankIndex(double P, size_t N) {
  const double Rank = std::ceil(P / 100.0 * static_cast<double>(N));
  return static_cast<size_t>(std::clamp(Rank, 1.0, static_cast<double>(N))) -
         1;
}
} // namespace

double Samples::percentile(double P) const {
  if (Values.empty())
    return 0;
  return sorted()[rankIndex(P, Values.size())];
}

size_t Samples::beyond(double P) const {
  if (Values.empty())
    return 0;
  return Values.size() - 1 - rankIndex(P, Values.size());
}

double Samples::highestSupported() const {
  for (double P : {99.0, 95.0, 90.0, 75.0, 50.0})
    if (supports(P))
      return P;
  return 0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::record(const char *Name, int64_t Start, int64_t End,
                       int64_t Parent, uint64_t Ticket) {
  if (!enabled())
    return -1;
  std::lock_guard<std::mutex> Lock(Mu);
  All.push_back(Span{Name, Start, End, Parent, Ticket});
  return static_cast<int64_t>(All.size()) - 1;
}

int64_t Tracer::open(const char *Name, int64_t Parent, uint64_t Ticket) {
  const int64_t T = now();
  return record(Name, T, T, Parent, Ticket);
}

void Tracer::close(int64_t Id) {
  if (Id < 0)
    return;
  const int64_t T = now();
  std::lock_guard<std::mutex> Lock(Mu);
  All[static_cast<size_t>(Id)].End = T;
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return All;
}

std::map<std::string, double> Tracer::selfTimes() const {
  const std::vector<Span> Spans = collect();
  // Children of each span as [start, end) intervals clipped to the parent;
  // their union is subtracted from the parent's duration.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &Sp : Spans)
    if (Sp.Parent >= 0 && static_cast<size_t>(Sp.Parent) < Spans.size()) {
      const Span &P = Spans[static_cast<size_t>(Sp.Parent)];
      const int64_t Lo = std::max(Sp.Start, P.Start);
      const int64_t Hi = std::min(Sp.End, P.End);
      if (Hi > Lo)
        Kids[static_cast<size_t>(Sp.Parent)].emplace_back(Lo, Hi);
    }
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    int64_t Covered = 0, Reach = INT64_MIN;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo)
        Covered += Hi - Lo;
      Reach = std::max(Reach, Hi);
    }
    Self[Spans[I].Name] +=
        static_cast<double>(Spans[I].End - Spans[I].Start - Covered) / 1e6;
  }
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::vector<Span> Spans = collect();
  for (size_t I = 0; I < Spans.size(); ++I)
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"ticket\": %llu}\n",
                 I, Spans[I].Name, static_cast<long long>(Spans[I].Start),
                 static_cast<long long>(Spans[I].End),
                 static_cast<long long>(Spans[I].Parent),
                 static_cast<unsigned long long>(Spans[I].Ticket));
  return std::fclose(F) == 0;
}

Scope::Scope(const char *Name, int64_t Parent, uint64_t Ticket) {
  Tracer &T = Tracer::get();
  if (T.enabled())
    Id = T.open(Name, Parent, Ticket);
}

Scope::~Scope() { Tracer::get().close(Id); }

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, uint64_t Count,
                    const std::string &Note) {
  Metrics[Name] = Metric{Value, Unit, Count, Note};
}

void Report::latency(const std::string &Name, const Samples &S, double P,
                     const std::string &Unit) {
  double Used = P;
  std::string Note;
  if (!S.supports(P)) {
    Used = S.highestSupported();
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "p%g unsupported by %zu samples; p%g",
                  P, S.size(), Used);
    Note = Buf;
  }
  metric(Name, Used > 0 ? S.percentile(Used) : 0, Unit, S.size(),
         Note);
}

void Report::config(const std::string &Key, const std::string &Value) {
  Config.emplace_back(Key, "\"" + Value + "\"");
}

void Report::config(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", Value);
  Config.emplace_back(Key, Buf);
}

void Report::failure(const std::string &Why, uint64_t N) {
  if (N == 0)
    return;
  Failed += N;
  FailuresByKind[Why] += N;
}

void Report::mismatch(const std::string &What) {
  std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", What.c_str());
  ++Mismatches;
  failure("wrong_answer");
}

void Report::print(const std::string &Workload, bool Traced) const {
  std::printf("{\"workload\": \"%s\", \"trace\": %d, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"fail_rate\": %.6g, "
              "\"failures\": {",
              Workload.c_str(), Traced ? 1 : 0, correct() ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Attempted ? static_cast<double>(Failed) /
                              static_cast<double>(Attempted)
                        : 0.0);
  const char *Sep = "";
  for (const auto &[Kind, N] : FailuresByKind) {
    std::printf("%s\"%s\": %llu", Sep, Kind.c_str(),
                static_cast<unsigned long long>(N));
    Sep = ", ";
  }
  std::printf("}, \"config\": {");
  Sep = "";
  for (const auto &[Key, Value] : Config) {
    std::printf("%s\"%s\": %s", Sep, Key.c_str(), Value.c_str());
    Sep = ", ";
  }
  std::printf("}, \"metrics\": {");
  Sep = "";
  for (const auto &[Name, M] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\", "
                "\"samples\": %llu",
                Sep, Name.c_str(), M.Value, M.Unit.c_str(),
                static_cast<unsigned long long>(M.Count));
    if (!M.Note.empty())
      std::printf(", \"note\": \"%s\"", M.Note.c_str());
    std::printf("}");
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void releaseFreedMemory() { malloc_trim(0); }

const std::vector<std::pair<const char *, const char *>> &layerMetricTable() {
  static const std::vector<std::pair<const char *, const char *>> Table = {
      {"engine.submit_us_p99", "us"},
      {"engine.wait_ms_p50", "ms"},
      {"engine.wait_ms_p99", "ms"},
      {"engine.queue_depth_max", "count"},
      {"engine.batch_window_us_max", "us"},
      {"engine.run_ms_p50", "ms"},
      {"engine.run_ms_p99", "ms"},
      {"engine.class_p99_ratio", "ratio"},
      {"engine.ctl_tightens", "count"},
      {"engine.shed_rate", "ratio"},
      {"engine.deadline_rate", "ratio"},
      {"engine.degraded_rate", "ratio"},
      {"hot_cache.hit_rate", "ratio"},
      {"hot_cache.repair_ms_p50", "ms"},
      {"hot_cache.repair_ms_p99", "ms"},
      {"hot_cache.repairs_per_batch", "count"},
      {"hot_cache.repair_over_recompute", "ratio"},
      {"store.apply_ms_p50", "ms"},
      {"store.apply_ms_p99", "ms"},
      {"store.folds", "count"},
      {"store.fold_apply_ms_max", "ms"},
      {"store.overlay_frac", "ratio"},
      {"store.degraded", "count"},
      {"graph.delta_tax", "ratio"},
      {"graph.sharded_tax", "ratio"},
      {"algorithms.pooled_speedup", "ratio"},
      {"algorithms.ppsp_ms", "ms"},
      {"algorithms.astar_ms", "ms"},
      {"algorithms.sssp_s", "s"},
      {"algorithms.sssp_lazy_s", "s"},
      {"algorithms.ppsp_long_s", "s"},
      {"algorithms.astar_long_s", "s"},
      {"algorithms.kcore_s", "s"},
      {"algorithms.setcover_s", "s"},
      {"core.rounds", "count"},
      {"core.fused_share", "ratio"},
      {"core.work_ratio", "ratio"},
      {"core.overflow_rebuckets", "count"},
      {"core.fusion_speedup", "ratio"},
      {"core.thread_speedup", "ratio"},
      {"runtime.lazy_rounds", "count"},
      {"runtime.lazy_over_eager", "ratio"},
      {"bench.gen_lag_ms_p99", "ms"},
      {"bench.write_lag_ms_p99", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return Table;
}

} // namespace perfbench
