//===- perfbench/src/Bench.h - Samples, spans and the result report -------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three pieces every workload of the repository benchmark shares:
///
///  * `Samples` — raw latency samples with exact nearest-rank percentiles.
///    A percentile is only *supported* when at least ten samples lie
///    beyond it; nothing is quantized into histogram buckets.
///  * `Tracer` — in-memory spans (name, start, end, parent, ticket) that
///    the benchmark records around its own calls into each layer. Off in
///    the untraced run; written out as JSON lines when the run ends.
///  * `Report` — every metric by name with unit and sample count, the
///    run's configuration, and the attempted/failed operation counts.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_PERFBENCH_BENCH_H
#define GRAPHIT_PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Raw samples of one quantity.
class Samples {
public:
  void add(double V) {
    Values.push_back(V);
    Sorted.clear();
  }
  void append(const Samples &O) {
    Values.insert(Values.end(), O.Values.begin(), O.Values.end());
    Sorted.clear();
  }
  /// The samples in the order they were added.
  const std::vector<double> &values() const { return Values; }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }

  /// Exact nearest-rank percentile \p P in (0, 100].
  double percentile(double P) const;
  /// Samples strictly after the nearest rank of \p P.
  size_t beyond(double P) const;
  /// True when at least ten samples lie beyond percentile \p P.
  bool supports(double P) const { return beyond(P) >= 10; }
  /// The highest of p99, p95, p90, p75 and p50 that this sample
  /// supports, or 0 when even the median is not supported.
  double highestSupported() const;
  double median() const { return percentile(50); }

private:
  std::vector<double> Values;
  /// Sorted copy of Values, built on the first percentile query.
  mutable std::vector<double> Sorted;
  const std::vector<double> &sorted() const;
};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct Span {
  const char *Name = "";
  int64_t Start = 0;
  int64_t End = 0;
  /// Id of the span that caused this one (-1 for a root).
  int64_t Parent = -1;
  /// Query ticket or write-batch ordinal; 0 when the span has none.
  uint64_t Ticket = 0;
};

/// In-memory span recorder. Recording a span takes one short lock around a
/// vector append; `enabled()` is false in the untraced run and every
/// `Scope` is then a no-op.
class Tracer {
public:
  static Tracer &get();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Epoch)
        .count();
  }
  int64_t toNs(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

  /// Appends a finished span; returns its id (-1 when disabled).
  int64_t record(const char *Name, int64_t Start, int64_t End,
                 int64_t Parent, uint64_t Ticket);
  /// Reserves an id for a span that is still open, so children recorded
  /// on other threads can name it as their parent; `close` fills it in.
  int64_t open(const char *Name, int64_t Parent, uint64_t Ticket);
  void close(int64_t Id);

  /// Every span recorded so far, ids equal to vector positions.
  std::vector<Span> collect() const;

  /// Per-name self time in milliseconds: each span's duration minus the
  /// part of it covered by its children.
  std::map<std::string, double> selfTimes() const;

  /// Writes every span as one JSON line to \p Path. \returns false when the
  /// file cannot be written.
  bool write(const std::string &Path) const;

private:
  Tracer() : Epoch(Clock::now()) {}
  Clock::time_point Epoch;
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::vector<Span> All; ///< guarded by Mu
};

/// RAII span around one call: records on destruction when tracing is on.
class Scope {
public:
  Scope(const char *Name, int64_t Parent = -1, uint64_t Ticket = 0);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  /// The span's id, usable as a parent by spans on other threads.
  int64_t id() const { return Id; }

private:
  int64_t Id = -1;
};

/// One reported metric.
struct Metric {
  double Value = 0;
  std::string Unit;
  /// Samples behind the value (0 when the workload does not exercise the
  /// metric's layer).
  uint64_t Count = 0;
  /// Free-form provenance, e.g. the percentile actually supported.
  std::string Note;
};

/// Everything one run prints.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit,
              uint64_t Count, const std::string &Note = "");
  /// Reports percentile \p P of \p S when the sample supports it;
  /// otherwise the highest supported percentile, noted.
  void latency(const std::string &Name, const Samples &S, double P,
               const std::string &Unit = "ms");
  void config(const std::string &Key, const std::string &Value);
  void config(const std::string &Key, double Value);

  /// Operation accounting: every attempted operation, and the ones that
  /// failed (wrong answer, Failed/Shed/DeadlineExceeded, rejected write,
  /// surfaced compaction error).
  void attempt(uint64_t N = 1) { Attempted += N; }
  void failure(const std::string &Why, uint64_t N = 1);
  /// An answer that disagrees with its oracle: fails the run.
  void mismatch(const std::string &What);

  bool correct() const { return Mismatches == 0; }
  const std::map<std::string, Metric> &metrics() const { return Metrics; }

  /// Prints the full result as one JSON line.
  void print(const std::string &Workload, bool Traced) const;

private:
  std::map<std::string, Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Config;
  std::map<std::string, uint64_t> FailuresByKind;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Mismatches = 0;
};

/// Peak resident set size of this process in MiB.
double peakRssMiB();

/// Returns the heap memory freed so far to the system, so that what an
/// earlier set-up repetition left behind in the allocator's arenas does
/// not count in the peak RSS of the run being measured.
void releaseFreedMemory();

/// Command-line configuration of one run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  int Threads = 4;
};

/// Names and units of every per-layer metric, in report order. A workload
/// that does not exercise a layer reports its metrics as 0 with count 0.
const std::vector<std::pair<const char *, const char *>> &layerMetricTable();

void runRoadBatch(const RunConfig &Cfg, Report &R);
void runSocialBatch(const RunConfig &Cfg, Report &R);
void runLiveRouting(const RunConfig &Cfg, Report &R);
void runLiveDepots(const RunConfig &Cfg, Report &R);

} // namespace perfbench

#endif // GRAPHIT_PERFBENCH_BENCH_H
