//===- perfbench/src/LiveWorkloads.cpp - live_routing and live_depots -----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The two serving workloads, both on a 600 x 600 road grid behind a live
// store and a `BasicQueryEngine`, with an open-loop writer on its own
// thread whose batches are due on a seeded Poisson clock and timed from
// that due time. Queries come from a closed loop that keeps two queries
// in flight from one client thread (the gated latencies: steady on a
// shared box because the worker never idles) and, on live_routing, also
// from an open-loop ladder of frozen rates timed from each query's due
// time, so generator lateness counts.
//
//  live_routing — read-heavy: a `SnapshotStore` whose overlay is pre-loaded
//                 to half its compaction trigger, the deployed engine
//                 options (admission control, premium class SLO, feedback
//                 controller), two-class local PPSP/A* traffic, and a light
//                 congestion/restore writer. Threads: 1 engine worker, 1
//                 client (or arrival + collector on the ladder), 1 writer.
//  live_depots  — write-heavy: a 4-shard `ShardedSnapshotStore` whose
//                 per-shard folds trip inline several times per run, an
//                 engine holding 8 hot depot states, depot PPSP plus a
//                 share of cold queries, and a writer whose batches go
//                 through `Engine.applyUpdates`. Each fold drops the
//                 engine's hot states, so hot-state repair is timed and
//                 checked in a fold-free probe. Threads: 1 engine worker,
//                 1 client, 1 writer.
//
// After the load, with writes quiesced, a sample of engine answers is
// checked against serial Dijkstra on the store's final pinned snapshot,
// and (live_depots) every repaired hot depot state against a fresh one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "algorithms/AStar.h"
#include "algorithms/Dijkstra.h"
#include "algorithms/PPSP.h"
#include "algorithms/QueryState.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <omp.h>
#include <thread>
#include <vector>

using namespace graphit;
using namespace graphit::service;

namespace perfbench {
namespace {

constexpr Count kSide = 600;
constexpr int64_t kDelta = 1024;
constexpr int kSetupReps = 3;
/// The repository's premium-class p99 SLO: the latency limit of max_qps.
constexpr double kPremiumSloMs = 30.0;
/// Share of each rung excluded from the latency samples while the
/// controller and the engine queue settle.
constexpr double kRungWarmShare = 0.15;
/// Length of the time windows a closed loop's latencies are grouped into.
constexpr double kWindowSeconds = 0.25;

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

Graph buildGrid(uint64_t Seed) {
  RoadNetwork Net = roadGrid(kSide, kSide, Seed);
  BuildOptions O;
  O.Symmetrize = true;
  return GraphBuilder(O).build(Net.NumNodes, std::move(Net.Edges),
                               std::move(Net.Coords));
}

/// A fixed pool of road segments that the writers congest and restore.
/// Congestion multiplies a segment's base weight; restore puts the base
/// weight back. Neither can lower a weight below the base, so the A*
/// coordinate heuristic stays admissible.
class CongestionPool {
public:
  CongestionPool(const Graph &G, Count Size, uint64_t Seed) : Rng(Seed) {
    while (static_cast<Count>(Edges.size()) < Size) {
      const VertexId U = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
      const Count Deg = G.outDegree(U);
      if (Deg == 0)
        continue;
      const Count Pick = Rng.nextInt(0, Deg);
      Count I = 0;
      for (WNode E : G.outNeighbors(U))
        if (I++ == Pick) {
          Edges.push_back({U, E.V, E.W});
          break;
        }
    }
    Congested.assign(Edges.size(), false);
    Active = Edges.size();
  }

  /// Toggles \p K random segments among the first `setActive` ones of the
  /// pool (congest the free ones, restore the congested ones).
  std::vector<EdgeUpdate> batch(Count K) {
    std::vector<EdgeUpdate> B;
    B.reserve(static_cast<size_t>(K));
    for (Count I = 0; I < K; ++I) {
      const size_t J =
          static_cast<size_t>(Rng.nextInt(0, static_cast<int64_t>(Active)));
      const Seg &S = Edges[J];
      Congested[J] = !Congested[J];
      B.push_back(EdgeUpdate{S.U, S.V, Congested[J] ? S.W * 3 : S.W,
                             UpdateKind::Upsert});
    }
    return B;
  }

  /// Congests segments [From, To) of the pool, in order.
  std::vector<EdgeUpdate> congestRange(size_t From, size_t To) {
    std::vector<EdgeUpdate> B;
    for (size_t J = From; J < std::min(To, Edges.size()); ++J) {
      Congested[J] = true;
      B.push_back(EdgeUpdate{Edges[J].U, Edges[J].V, Edges[J].W * 3,
                             UpdateKind::Upsert});
    }
    return B;
  }

  size_t size() const { return Edges.size(); }
  /// Restricts `batch` to segments [0, N): toggling segments that already
  /// carry an overlay patch keeps the overlay from growing.
  void setActive(size_t N) { Active = std::min(N, Edges.size()); }

private:
  struct Seg {
    VertexId U, V;
    Weight W;
  };
  std::vector<Seg> Edges;
  std::vector<bool> Congested;
  size_t Active = 0;
  SplitMix64 Rng;
};

/// One rung of an open-loop schedule.
struct Rung {
  const char *Name;
  double Qps;
  double Seconds;
};

/// What the arrival thread hands the collector for one query.
struct InFlight {
  uint64_t Ticket = 0;
  Clock::time_point Due, Submitted;
  int Rung = 0;
  int Class = 0; ///< 0 premium, 1 bulk
  bool Measured = false;
  int64_t RungSpan = -1;
};

/// Per-rung outcome. Latencies are of Ok queries in the measured part of
/// the rung; counts cover the whole rung.
struct RungStats {
  Samples LatMs, PremiumMs, BulkMs, WaitMs, RunMs, SubmitUs, LagMs;
  /// Closed loop only: LatMs split by completion time into consecutive
  /// kWindowSeconds windows of the measured part.
  std::vector<Samples> WinLatMs;
  uint64_t Submitted = 0, Ok = 0, Shed = 0, Deadline = 0, Failed = 0,
           Degraded = 0;
  uint64_t DepotQueries = 0;
  size_t QueueDepthMax = 0, QueueDepthEnd = 0;
  double Offered = 0;

  uint64_t failures() const { return Shed + Deadline + Failed; }
};

/// Books one collected query into \p S.
void tally(RungStats &S, const std::optional<QueryResult> &Res,
           const InFlight &F, Clock::time_point Now) {
  if (!Res) {
    ++S.Failed;
    return;
  }
  if (Res->Degraded)
    ++S.Degraded;
  switch (Res->Status) {
  case QueryStatus::Ok: {
    ++S.Ok;
    if (!F.Measured)
      break;
    const double Lat = msBetween(F.Due, Now);
    S.LatMs.add(Lat);
    (F.Class == 0 ? S.PremiumMs : S.BulkMs).add(Lat);
    const double RunMs = Res->Stats.Seconds * 1000.0;
    S.RunMs.add(RunMs);
    S.WaitMs.add(std::max(0.0, msBetween(F.Submitted, Now) - RunMs));
    break;
  }
  case QueryStatus::Shed:
    ++S.Shed;
    break;
  case QueryStatus::DeadlineExceeded:
    ++S.Deadline;
    break;
  case QueryStatus::Failed:
    ++S.Failed;
    break;
  }
}

/// Outcome of the write stream.
struct WriteStats {
  Samples LatMs, LagMs;
  uint64_t Batches = 0, Large = 0, Rejected = 0, CompactionErrors = 0;
  /// Every batch in publish order (set-up pre-load included) and whether
  /// it was issued while tracing: the store-only replay re-applies them
  /// all and times the traced ones.
  std::vector<std::vector<EdgeUpdate>> Log;
  std::vector<bool> Traced;
};

template <class EngineT>
void applyThroughEngine(EngineT &Engine, std::vector<EdgeUpdate> Batch,
                        Clock::time_point Due, WriteStats &W, uint64_t Seq) {
  const Clock::time_point T0 = Clock::now();
  const auto Res = Engine.applyUpdates(Batch);
  const Clock::time_point T1 = Clock::now();
  Tracer &T = Tracer::get();
  if (T.enabled())
    T.record("engine.applyUpdates", T.toNs(T0), T.toNs(T1), -1, Seq);
  W.LagMs.add(msBetween(Due, T0));
  W.LatMs.add(msBetween(Due, T1));
  ++W.Batches;
  if (Batch.size() >= 512)
    ++W.Large;
  if (Res.Status != ApplyStatus::Ok)
    ++W.Rejected;
  if (!Res.CompactionError.empty())
    ++W.CompactionErrors;
  W.Log.push_back(std::move(Batch));
  W.Traced.push_back(T.enabled());
}

/// Drives \p Engine through \p Rungs on the calling (arrival) thread and
/// one collector thread. \p NextQuery builds the I-th query and says
/// whether it is a depot query.
template <class EngineT, class QueryFn>
std::vector<RungStats> runOpenLoop(EngineT &Engine,
                                   const std::vector<Rung> &Rungs,
                                   uint64_t Seed, QueryFn &&NextQuery) {
  std::vector<RungStats> Out(Rungs.size());
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<InFlight> Handoff;
  bool Done = false;
  const bool Traced = Tracer::get().enabled();

  std::thread Collector([&] {
    omp_set_num_threads(1);
    while (true) {
      InFlight F;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return !Handoff.empty() || Done; });
        if (Handoff.empty())
          return;
        F = Handoff.front();
        Handoff.pop_front();
      }
      std::optional<QueryResult> Res;
      const int64_t C0 = Traced ? Tracer::get().now() : 0;
      Res = Engine.tryCollect(F.Ticket);
      const Clock::time_point Now = Clock::now();
      if (Traced)
        Tracer::get().record("engine.collect", C0, Tracer::get().toNs(Now),
                             F.RungSpan, F.Ticket);
      tally(Out[static_cast<size_t>(F.Rung)], Res, F, Now);
    }
  });

  omp_set_num_threads(1);
  SplitMix64 Rng(Seed ^ 0xA11CE);
  uint64_t I = 0;
  Clock::time_point Next = Clock::now();
  for (size_t RI = 0; RI < Rungs.size(); ++RI) {
    const Rung &Rg = Rungs[RI];
    RungStats &S = Out[RI];
    S.Offered = Rg.Qps;
    const int64_t RungSpan = Traced ? Tracer::get().open(Rg.Name, -1, 0) : -1;
    const Clock::time_point RungStart = std::max(Next, Clock::now());
    Next = RungStart;
    const Clock::time_point RungEnd =
        RungStart + std::chrono::microseconds(
                        static_cast<int64_t>(Rg.Seconds * 1e6));
    const Clock::time_point WarmEnd =
        RungStart + std::chrono::microseconds(static_cast<int64_t>(
                        Rg.Seconds * kRungWarmShare * 1e6));
    while (true) {
      const double Gap = -std::log(1.0 - Rng.nextDouble()) * (1e6 / Rg.Qps);
      Next += std::chrono::microseconds(static_cast<int64_t>(Gap));
      if (Next >= RungEnd)
        break;
      std::this_thread::sleep_until(Next);
      auto [Q, Depot] = NextQuery(I);
      InFlight F;
      F.Due = Next;
      F.Rung = static_cast<int>(RI);
      F.Measured = Next >= WarmEnd;
      F.Class = importanceClass(Q.Importance) == 0 ? 0 : 1;
      F.RungSpan = RungSpan;
      F.Submitted = Clock::now();
      F.Ticket = Engine.submit(std::move(Q));
      const Clock::time_point SubEnd = Clock::now();
      if (Traced)
        Tracer::get().record("engine.submit", Tracer::get().toNs(F.Submitted),
                             Tracer::get().toNs(SubEnd), RungSpan, F.Ticket);
      if (F.Measured) {
        S.LagMs.add(msBetween(F.Due, F.Submitted));
        S.SubmitUs.add(msBetween(F.Submitted, SubEnd) * 1000.0);
      }
      ++S.Submitted;
      S.DepotQueries += Depot ? 1 : 0;
      if (Traced && (I & 31) == 0)
        S.QueueDepthMax = std::max(S.QueueDepthMax, Engine.queueDepth());
      ++I;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Handoff.push_back(F);
      }
      Cv.notify_one();
    }
    S.QueueDepthEnd = Engine.queueDepth();
    S.QueueDepthMax = std::max(S.QueueDepthMax, S.QueueDepthEnd);
    Next = RungEnd;
    if (Traced)
      Tracer::get().close(RungSpan);
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Done = true;
  }
  Cv.notify_all();
  Collector.join();
  return Out;
}

/// Closed loop on the calling thread: kInFlight queries are kept
/// submitted, and each is followed by the next one as soon as it has been
/// collected, for \p Seconds. One worker therefore always has a query
/// queued while one client thread waits. Latency runs from submit to the
/// return of `collect`; the first kRungWarmShare of the time is warm-up
/// and unsampled.
template <class EngineT, class QueryFn>
RungStats runClosedLoop(EngineT &Engine, double Seconds,
                        QueryFn &&NextQuery) {
  constexpr size_t kInFlight = 2;
  RungStats S;
  uint64_t I = 0;
  const Clock::time_point Start = Clock::now();
  const Clock::time_point WarmEnd =
      Start + std::chrono::microseconds(
                  static_cast<int64_t>(Seconds * kRungWarmShare * 1e6));
  const Clock::time_point End =
      Start + std::chrono::microseconds(static_cast<int64_t>(Seconds * 1e6));
  Tracer &T = Tracer::get();
  const int64_t Span = T.enabled() ? T.open("closed_loop", -1, 0) : -1;
  std::deque<InFlight> Queue;
  auto Submit = [&] {
    auto [Q, Depot] = NextQuery(I++);
    InFlight F;
    F.Class = importanceClass(Q.Importance) == 0 ? 0 : 1;
    F.Due = F.Submitted = Clock::now();
    F.Measured = F.Due >= WarmEnd;
    F.Ticket = Engine.submit(std::move(Q));
    const Clock::time_point SubEnd = Clock::now();
    if (T.enabled())
      T.record("engine.submit", T.toNs(F.Submitted), T.toNs(SubEnd), Span,
               F.Ticket);
    ++S.Submitted;
    S.DepotQueries += Depot ? 1 : 0;
    if (F.Measured)
      S.SubmitUs.add(msBetween(F.Submitted, SubEnd) * 1000.0);
    Queue.push_back(F);
  };
  for (Clock::time_point Now = Start; !Queue.empty() || Now < End;) {
    while (Now < End && Queue.size() < kInFlight)
      Submit();
    const InFlight F = Queue.front();
    Queue.pop_front();
    const Clock::time_point C0 = Clock::now();
    const std::optional<QueryResult> Res = Engine.tryCollect(F.Ticket);
    Now = Clock::now();
    if (T.enabled())
      T.record("engine.collect", T.toNs(C0), T.toNs(Now), Span, F.Ticket);
    tally(S, Res, F, Now);
    if (F.Measured && Res && Res->Status == QueryStatus::Ok) {
      const size_t W = static_cast<size_t>(msBetween(WarmEnd, Now) /
                                           (kWindowSeconds * 1000.0));
      if (S.WinLatMs.size() <= W)
        S.WinLatMs.resize(W + 1);
      S.WinLatMs[W].add(msBetween(F.Due, Now));
    }
  }
  T.close(Span);
  return S;
}

/// Reports as \p Name the median over \p Windows of each window's
/// percentile \p P, skipping windows too small to support it. A window
/// the host slowed for a moment then moves the metric by at most one rank.
void windowedLatency(Report &R, const std::string &Name,
                     const std::vector<Samples> &Windows, double P) {
  Samples PerWindow;
  for (const Samples &W : Windows)
    if (W.supports(P))
      PerWindow.add(W.percentile(P));
  char Note[64];
  std::snprintf(Note, sizeof(Note), "median of %zu %gs windows' p%g",
                PerWindow.size(), kWindowSeconds, P);
  R.metric(Name, PerWindow.median(), "ms", PerWindow.size(), Note);
}

/// Engine answers for \p Pairs (PPSP) against serial Dijkstra on the
/// store's final snapshot, submitted in small chunks so no check query is
/// degraded or shed by admission control.
template <class EngineT, class StoreT>
void verifyAnswers(EngineT &Engine, StoreT &Store,
                   const std::vector<std::pair<VertexId, VertexId>> &Pairs,
                   Report &R) {
  const Graph Final = Store.current()->compact();
  for (size_t I = 0; I < Pairs.size(); I += 16) {
    std::vector<Query> Chunk;
    for (size_t J = I; J < std::min(Pairs.size(), I + 16); ++J) {
      Query Q;
      Q.Kind = (J & 1) ? QueryKind::AStar : QueryKind::PPSP;
      Q.Source = Pairs[J].first;
      Q.Target = Pairs[J].second;
      Q.Importance = kNumImportanceClasses - 1;
      Chunk.push_back(Q);
    }
    std::vector<QueryResult> Got = Engine.runBatch(Chunk);
    for (size_t J = 0; J < Chunk.size(); ++J) {
      R.attempt();
      if (Got[J].Status != QueryStatus::Ok) {
        R.failure("check_query_not_ok");
        continue;
      }
      const Priority Want =
          dijkstraPPSP(Final, Chunk[J].Source, Chunk[J].Target);
      if (Got[J].Dist != Want)
        R.mismatch("engine answer vs Dijkstra on the final snapshot");
    }
  }
}

/// Mean per-query milliseconds of a fixed 1-thread pooled PPSP query set
/// on \p View, and on \p Base, interleaved \p Reps times; returns the
/// ratio of medians (View / Base).
template <class ViewT>
double viewTax(const ViewT &View, const Graph &Base,
               const std::vector<std::pair<VertexId, VertexId>> &Pairs,
               int Reps) {
  Schedule S;
  S.Delta = kDelta;
  DistanceState St(Base.numNodes());
  Samples A, B;
  auto Pass = [&](const auto &G) {
    const Clock::time_point T0 = Clock::now();
    for (const auto &[Src, Dst] : Pairs)
      pointToPointShortestPath(G, Src, Dst, S, St);
    return msBetween(T0, Clock::now());
  };
  Pass(View);
  Pass(Base);
  for (int I = 0; I < Reps; ++I) {
    A.add(Pass(View));
    B.add(Pass(Base));
  }
  return A.median() / B.median();
}

/// Store-only replay: re-applies every logged batch to \p Replica (built
/// exactly like the served store) and returns the apply time of each
/// traced batch, plus the largest apply time among batches that tripped a
/// compaction.
template <class StoreT>
std::vector<double> replayOnStore(StoreT &Replica, const WriteStats &W,
                                  double &FoldApplyMax) {
  std::vector<double> Ms;
  FoldApplyMax = 0;
  Tracer &Tr = Tracer::get();
  for (size_t I = 0; I < W.Log.size(); ++I) {
    const Clock::time_point T0 = Clock::now();
    const auto Res = Replica.applyUpdates(W.Log[I]);
    if (Tr.enabled())
      Tr.record("store.replay", Tr.toNs(T0), Tr.now(), -1, I);
    const double T = msBetween(T0, Clock::now());
    if (!W.Traced[I])
      continue;
    Ms.push_back(T);
    if (Res.CompactionTriggered)
      FoldApplyMax = std::max(FoldApplyMax, T);
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// live_routing
//===----------------------------------------------------------------------===//

/// The frozen ascending ladder of absolute offered rates (queries/s),
/// calibrated once against the parent commit on a 4-core Xeon: one worker
/// sustains this mix open loop up to ~3.5k qps (see perfbench/DESIGN.md).
/// Rung 1 is `nominal` (~30% of that), rung 3 is `high` (~60%).
constexpr double kLadderQps[] = {500, 1000, 1500, 2000, 2500, 3000, 3500,
                                 4000};
constexpr size_t kNominal = 1, kHigh = 3;
/// Share of the load time each rung gets: the two named rungs get the
/// most, so their tails rest on the largest samples.
constexpr double kLadderShare[] = {0.06, 0.34, 0.07, 0.26, 0.07,
                                   0.07, 0.07, 0.06};
constexpr int kRoutingWorkers = 1;
constexpr double kRoutingWritesPerSec = 100;
constexpr Count kRoutingWriteEdges = 16;

QueryEngine::Options routingEngineOptions() {
  // The deployed configuration: service_bench's controller-on point.
  QueryEngine::Options O;
  O.NumWorkers = kRoutingWorkers;
  O.OmpThreadsPerQuery = 1;
  O.DefaultSchedule.Delta = kDelta;
  O.AdmissionHighWater = 512;
  O.AdmissionSoftWater = 128;
  O.MaxBatchDelayMicros = 400;
  O.ClassSlo[0] = 24000;
  O.ControllerIntervalMicros = 20000;
  O.ControllerMinSamples = 16;
  O.ControllerSlackFraction = 0.45;
  O.ControllerHysteresisTicks = 4;
  O.ControllerMinHighWater = 32;
  O.ControllerMinSoftWater = 16;
  return O;
}

/// Two-class local routing traffic: every 4th query premium (class 0, no
/// deadline); the rest bulk, half of them with a 50 ms deadline. Even
/// indices PPSP, odd A*.
struct RoutingTraffic {
  std::vector<std::pair<VertexId, VertexId>> Pairs;
  explicit RoutingTraffic(uint64_t Seed)
      : Pairs(localGridQueryPairs(kSide, kSide, kSide / 24, 1 << 16, Seed)) {}
  std::pair<Query, bool> operator()(uint64_t I) const {
    const auto &P = Pairs[I % Pairs.size()];
    Query Q;
    Q.Kind = (I & 1) ? QueryKind::AStar : QueryKind::PPSP;
    Q.Source = P.first;
    Q.Target = P.second;
    Q.Importance = (I % 4 == 0) ? kNumImportanceClasses - 1 : 0;
    Q.DeadlineMicros = (Q.Importance == 0 && (I / 4) % 2 == 0) ? 50000 : 0;
    return {Q, false};
  }
};

struct RoutingSetup {
  Graph Base;
  std::unique_ptr<SnapshotStore> Store;
  std::unique_ptr<QueryEngine> Engine;
  std::unique_ptr<CongestionPool> Pool;
  WriteStats Writes;
};

SnapshotStore::Options routingStoreOptions() {
  SnapshotStore::Options O; // synchronous compaction at 10% overlay
  return O;
}

/// Builds the store, pre-loads its overlay to half the compaction trigger
/// through congestion of distinct segments, starts the engine and warms it.
void setUpRouting(RoutingSetup &S, uint64_t Seed,
                  const RoutingTraffic &Traffic) {
  S.Engine.reset();
  S.Store.reset();
  S.Pool.reset();
  S.Writes = WriteStats();
  S.Base = Graph();
  releaseFreedMemory();
  S.Base = buildGrid(Seed);
  S.Store = std::make_unique<SnapshotStore>(S.Base, routingStoreOptions());
  const SnapshotStore::Options SO = routingStoreOptions();
  const double Trigger =
      SO.CompactionThreshold * static_cast<double>(S.Base.numEdges());
  S.Pool = std::make_unique<CongestionPool>(S.Base, 40000, Seed ^ 0x9001);
  size_t Next = 0;
  while (static_cast<double>(S.Store->current()->overlayEdges()) <
             0.5 * Trigger &&
         Next < S.Pool->size()) {
    std::vector<EdgeUpdate> B = S.Pool->congestRange(Next, Next + 1024);
    Next += 1024;
    S.Store->applyUpdates(B);
    S.Writes.Log.push_back(std::move(B));
    S.Writes.Traced.push_back(false);
  }
  S.Pool->setActive(Next);
  S.Engine = std::make_unique<QueryEngine>(*S.Store, routingEngineOptions());
  // Warm-up: worker states, allocator, controller EWMAs.
  std::vector<Query> Warm;
  for (uint64_t I = 0; I < 2048; ++I)
    Warm.push_back(Traffic(I).first);
  for (size_t I = 0; I < Warm.size(); I += 64) {
    std::vector<Query> Chunk(Warm.begin() + static_cast<long>(I),
                             Warm.begin() + static_cast<long>(I + 64));
    for (Query &Q : Chunk)
      Q.DeadlineMicros = 0;
    S.Engine->runBatch(Chunk);
  }
}

//===----------------------------------------------------------------------===//
// live_depots
//===----------------------------------------------------------------------===//

constexpr int kDepots = 8;
/// Share of queries that are cold local PPSP/A* between random points;
/// the rest are PPSP from a depot to a target in its service area.
constexpr double kColdShare = 0.10;
/// Depot PPSP targets lie within this many grid cells of the depot.
constexpr Count kDepotWindow = kSide / 24;
constexpr double kDepotWritesPerSec = 10;
constexpr Count kDepotSmallEdges = 8;
constexpr Count kDepotLargeEdges = 512;
/// Every kLargeEvery-th batch is a large one (past the repair-vs-recompute
/// crossover of BENCH_update_throughput.json).
constexpr uint64_t kLargeEvery = 25;
/// Batches of the repair probe (traced run only).
constexpr uint64_t kProbeBatches = 50;

ShardedSnapshotStore::Options depotStoreOptions() {
  ShardedSnapshotStore::Options O;
  O.NumShards = 4;
  // Low enough that every shard folds inline several times per run.
  O.CompactionThreshold = 0.004;
  O.MinOverlayEdges = 1024;
  return O;
}

ShardedQueryEngine::Options depotEngineOptions() {
  ShardedQueryEngine::Options O;
  O.NumWorkers = 1;
  O.OmpThreadsPerQuery = 1;
  O.DefaultSchedule.Delta = kDelta;
  O.HotSourceCapacity = kDepots;
  return O;
}

struct DepotSetup {
  Graph Base;
  std::unique_ptr<ShardedSnapshotStore> Store;
  std::unique_ptr<ShardedQueryEngine> Engine;
  std::unique_ptr<CongestionPool> Pool;
  std::vector<VertexId> Depots;
  WriteStats Writes;
};

struct DepotTraffic {
  const std::vector<VertexId> *Depots;
  std::vector<std::pair<VertexId, VertexId>> Cold;
  uint64_t Seed;
  DepotTraffic(const std::vector<VertexId> &D, uint64_t S)
      : Depots(&D),
        Cold(localGridQueryPairs(kSide, kSide, kSide / 24, 1 << 14, S)),
        Seed(S) {}
  std::pair<Query, bool> operator()(uint64_t I) const {
    const uint64_t H = hash64(Seed ^ (I * 0x9E3779B97F4A7C15ULL));
    const double U = static_cast<double>(H % 10000) / 10000.0;
    Query Q;
    if (U < kColdShare) {
      const auto &P = Cold[I % Cold.size()];
      Q.Kind = (H & (1 << 20)) ? QueryKind::AStar : QueryKind::PPSP;
      Q.Source = P.first;
      Q.Target = P.second;
      return {Q, false};
    }
    Q.Source = (*Depots)[(H >> 16) % Depots->size()];
    // A target in the depot's service area.
    const int64_t Row = static_cast<int64_t>(Q.Source / kSide);
    const int64_t Col = static_cast<int64_t>(Q.Source % kSide);
    const int64_t DR = static_cast<int64_t>((H >> 24) % (2 * kDepotWindow + 1));
    const int64_t DC = static_cast<int64_t>((H >> 40) % (2 * kDepotWindow + 1));
    const int64_t R = std::clamp<int64_t>(Row + DR - kDepotWindow, 0, kSide - 1);
    const int64_t C = std::clamp<int64_t>(Col + DC - kDepotWindow, 0, kSide - 1);
    Q.Kind = QueryKind::PPSP;
    Q.Target = static_cast<VertexId>(R * kSide + C);
    return {Q, true};
  }
};

void setUpDepots(DepotSetup &S, uint64_t Seed) {
  S.Engine.reset();
  S.Store.reset();
  S.Pool.reset();
  S.Writes = WriteStats();
  S.Base = Graph();
  releaseFreedMemory();
  S.Base = buildGrid(Seed);
  S.Store =
      std::make_unique<ShardedSnapshotStore>(S.Base, depotStoreOptions());
  S.Pool = std::make_unique<CongestionPool>(S.Base, 8192, Seed ^ 0xD0D0);
  S.Engine =
      std::make_unique<ShardedQueryEngine>(*S.Store, depotEngineOptions());
  SplitMix64 Rng(Seed ^ 0xDE9075);
  S.Depots.clear();
  while (static_cast<int>(S.Depots.size()) < kDepots) {
    const VertexId D = static_cast<VertexId>(Rng.nextInt(0, kSide * kSide));
    if (std::find(S.Depots.begin(), S.Depots.end(), D) == S.Depots.end())
      S.Depots.push_back(D);
  }
  // Warm-up: one SSSP per depot installs its hot state; then the write
  // stream runs until the first inline fold, and some depot and cold
  // queries warm the worker. A fold publishes an extra version and the
  // engine drops every hot state it cannot repair across it, so after the
  // first fold the cache stays empty: the measured run starts in that
  // steady state (see perfbench/DESIGN.md).
  std::vector<Query> Warm;
  for (VertexId D : S.Depots) {
    Query Q;
    Q.Kind = QueryKind::SSSP;
    Q.Source = D;
    Warm.push_back(Q);
  }
  S.Engine->runBatch(Warm);
  for (int I = 0; I < 4096 && S.Store->compactions() == 0; ++I) {
    std::vector<EdgeUpdate> B = S.Pool->batch(kDepotSmallEdges);
    S.Engine->applyUpdates(B);
    S.Writes.Log.push_back(std::move(B));
    S.Writes.Traced.push_back(false);
  }
  DepotTraffic T(S.Depots, Seed ^ 0x77);
  std::vector<Query> Qs;
  for (uint64_t I = 0; I < 512; ++I)
    Qs.push_back(T(I).first);
  S.Engine->runBatch(Qs);
}

/// Shape of an open-loop write stream.
struct WriteStream {
  double PerSec;
  Count SmallEdges;
  Count LargeEdges;
  uint64_t LargeEvery; ///< every LargeEvery-th batch is large; 0 = never
};

/// The writer thread: Poisson-due congestion/restore batches through
/// `Engine.applyUpdates` for \p Seconds, each timed from its due time.
template <class EngineT>
void runWriter(EngineT &Engine, CongestionPool &Pool, WriteStats &W,
               const WriteStream &Shape, double Seconds, uint64_t Seed,
               uint64_t &Seq) {
  omp_set_num_threads(1);
  SplitMix64 Rng(Seed ^ 0x3217E);
  const Clock::time_point End =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(Seconds * 1e6));
  Clock::time_point Due = Clock::now();
  while (true) {
    Due += std::chrono::microseconds(static_cast<int64_t>(
        -std::log(1.0 - Rng.nextDouble()) * (1e6 / Shape.PerSec)));
    if (Due >= End)
      break;
    std::this_thread::sleep_until(Due);
    ++Seq;
    const bool Large = Shape.LargeEvery && Seq % Shape.LargeEvery == 0;
    applyThroughEngine(Engine,
                       Pool.batch(Large ? Shape.LargeEdges : Shape.SmallEdges),
                       Due, W, Seq);
  }
}

/// One measured phase: the writer on its own thread for \p Seconds while
/// \p Load drives the queries on the calling thread.
template <class EngineT, class LoadFn>
auto withWriter(EngineT &Engine, CongestionPool &Pool, WriteStats &W,
                const WriteStream &Shape, double Seconds, uint64_t Seed,
                uint64_t &Seq, LoadFn &&Load) {
  std::thread Writer(
      [&] { runWriter(Engine, Pool, W, Shape, Seconds, Seed, Seq); });
  auto Res = Load();
  Writer.join();
  return Res;
}

/// The hot-state repair probe. A store like the served one but with folds
/// disabled, an engine holding the 8 depot states, and \p Batches batches
/// of the depot write shape applied through `Engine.applyUpdates` and,
/// separately, to a replica store. Repair time is the engine apply minus
/// the store-only apply of the same batch. Afterwards every depot state
/// (served from the repaired cache) is checked in full against Dijkstra.
void repairProbe(const DepotSetup &S, uint64_t Seed, uint64_t Batches,
                 bool Traced, Report &R) {
  Scope Sp("probe.repair");
  ShardedSnapshotStore::Options SO = depotStoreOptions();
  SO.CompactionThreshold = 1e9;
  ShardedSnapshotStore Store(S.Base, SO), Replica(S.Base, SO);
  ShardedQueryEngine Engine(Store, depotEngineOptions());
  std::vector<Query> Warm;
  for (VertexId D : S.Depots) {
    Query Q;
    Q.Kind = QueryKind::SSSP;
    Q.Source = D;
    Warm.push_back(Q);
  }
  Engine.runBatch(Warm);
  CongestionPool Pool(S.Base, 8192, Seed ^ 0x9B0B);
  Samples Repair;
  const uint64_t Repairs0 = Engine.hotRepairs();
  Tracer &T = Tracer::get();
  for (uint64_t I = 1; I <= Batches; ++I) {
    const std::vector<EdgeUpdate> B = Pool.batch(
        I % kLargeEvery == 0 ? kDepotLargeEdges : kDepotSmallEdges);
    const Clock::time_point T0 = Clock::now();
    const auto Res = Engine.applyUpdates(B);
    const Clock::time_point T1 = Clock::now();
    Replica.applyUpdates(B);
    const Clock::time_point T2 = Clock::now();
    if (T.enabled()) {
      T.record("engine.applyUpdates", T.toNs(T0), T.toNs(T1), Sp.id(), I);
      T.record("store.replay", T.toNs(T1), T.toNs(T2), Sp.id(), I);
    }
    R.attempt();
    if (Res.Status != ApplyStatus::Ok)
      R.failure("rejected_write_batch");
    Repair.add(std::max(0.0, msBetween(T0, T1) - msBetween(T1, T2)));
  }
  const uint64_t Repairs = Engine.hotRepairs() - Repairs0;
  const ShardedSnapshotStore::Snapshot Snap = Store.current();
  if (Traced) {
    R.latency("hot_cache.repair_ms_p50", Repair, 50);
    R.latency("hot_cache.repair_ms_p99", Repair, 99);
    R.metric("hot_cache.repairs_per_batch",
             static_cast<double>(Repairs) / static_cast<double>(Batches),
             "count", Batches);
    // Against a pooled fresh SSSP of the same depots on the same snapshot.
    Schedule Sch;
    Sch.Delta = kDelta;
    DistanceState St(Snap->numNodes());
    Samples Recompute;
    for (int Rep = 0; Rep < 3; ++Rep) {
      const Clock::time_point T0 = Clock::now();
      for (VertexId D : S.Depots)
        deltaSteppingSSSP(*Snap, D, Sch, St);
      Recompute.add(msBetween(T0, Clock::now()));
    }
    R.metric("hot_cache.repair_over_recompute",
             Repair.median() / Recompute.median(), "ratio", Repair.size());
  }

  const Graph Final = Snap->compact();
  const uint64_t Hits0 = Engine.hotHits();
  for (VertexId D : S.Depots) {
    Query Q;
    Q.Kind = QueryKind::SSSP;
    Q.Source = D;
    Q.CollectReached = true;
    const QueryResult Got = Engine.runBatch({Q})[0];
    R.attempt();
    const std::vector<Priority> Want = dijkstraSSSP(Final, D);
    std::vector<Priority> Have(Want.size(), kInfiniteDistance);
    for (const auto &[V, Dist] : Got.Reached)
      Have[V] = Dist;
    if (Got.Status != QueryStatus::Ok || Have != Want)
      R.mismatch("repaired hot depot state vs fresh Dijkstra SSSP");
  }
  R.config("repair_probe_batches", static_cast<double>(Batches));
  R.config("repair_probe_hot_hits",
           static_cast<double>(Engine.hotHits() - Hits0));
}

void reportWrites(const WriteStats &W, Report &R) {
  R.latency("write_p50_ms", W.LatMs, 50);
  R.latency("write_p99_ms", W.LatMs, 99);
  R.attempt(W.Batches);
  R.failure("rejected_write_batch", W.Rejected);
  R.failure("compaction_error", W.CompactionErrors);
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

void runLiveRouting(const RunConfig &Cfg, Report &R) {
  RoutingTraffic Traffic(Cfg.Seed ^ 0x4007);
  RoutingSetup S;
  Samples Setup;
  for (int I = 0; I < kSetupReps; ++I) {
    const Clock::time_point T0 = Clock::now();
    setUpRouting(S, Cfg.Seed, Traffic);
    Setup.add(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.metric("setup_s", Setup.median(), "s", Setup.size());
  const SnapshotStore::Options SO = routingStoreOptions();
  R.config("rows", static_cast<double>(kSide));
  R.config("vertices", static_cast<double>(S.Base.numNodes()));
  R.config("edges", static_cast<double>(S.Base.numEdges()));
  R.config("csr_mib", static_cast<double>(S.Base.numNodes() * 8 +
                                          S.Base.numEdges() * sizeof(WNode)) /
                          (1 << 20));
  R.config("delta", static_cast<double>(kDelta));
  R.config("engine_workers", kRoutingWorkers);
  // Closed loop: client + writer; ladder: arrival + collector + writer.
  R.config("bench_threads", 3);
  R.config("closed_loop_in_flight", 2);
  R.config("omp_threads_per_query", 1);
  R.config("overlay_frac_start",
           static_cast<double>(S.Store->current()->overlayEdges()) /
               static_cast<double>(S.Base.numEdges()));
  R.config("compaction_threshold", SO.CompactionThreshold);
  R.config("writes_per_s", kRoutingWritesPerSec);
  R.config("write_edges", static_cast<double>(kRoutingWriteEdges));
  R.config("query_window", static_cast<double>(kSide / 24));

  const WriteStream Writes{kRoutingWritesPerSec, kRoutingWriteEdges, 0, 0};
  uint64_t WriteSeq = 0;

  auto Ladder = [&](double Seconds) {
    std::vector<Rung> Rungs;
    static const char *Names[] = {"rung.0", "rung.1.nominal", "rung.2",
                                  "rung.3.high", "rung.4", "rung.5",
                                  "rung.6", "rung.7"};
    for (size_t I = 0; I < std::size(kLadderQps); ++I)
      Rungs.push_back({Names[I], kLadderQps[I], kLadderShare[I] * Seconds});
    return Rungs;
  };

  // Two loads share the writer: the closed loop (gated: p50_ms and
  // tail_ms, each a median over time windows, so a moment of host
  // interference moves neither) and the open-loop ladder (the rung
  // metrics).
  auto Closed = [&](double Seconds, uint64_t Seed) {
    return withWriter(*S.Engine, *S.Pool, S.Writes, Writes, Seconds, Seed,
                      WriteSeq, [&] {
                        return runClosedLoop(*S.Engine, Seconds, Traffic);
                      });
  };
  auto Open = [&](double Seconds, uint64_t Seed) {
    return withWriter(*S.Engine, *S.Pool, S.Writes, Writes, Seconds, Seed,
                      WriteSeq, [&] {
                        return runOpenLoop(*S.Engine, Ladder(Seconds), Seed,
                                           Traffic);
                      });
  };
  RungStats Client, Plain;
  std::vector<RungStats> Res;
  if (Cfg.Trace) {
    Plain = Closed(0.2 * Cfg.Seconds, Cfg.Seed ^ 1); // for the overhead
    Tracer::get().setEnabled(true);
    Client = Closed(0.5 * Cfg.Seconds, Cfg.Seed);
    Res = Open(0.3 * Cfg.Seconds, Cfg.Seed ^ 2);
  } else {
    Client = Closed(0.7 * Cfg.Seconds, Cfg.Seed);
    Res = Open(0.3 * Cfg.Seconds, Cfg.Seed ^ 2);
  }

  R.metric("peak_rss_mb", peakRssMiB(), "MiB", 1);
  windowedLatency(R, "p50_ms", Client.WinLatMs, 50);
  windowedLatency(R, "tail_ms", Client.WinLatMs, 90);
  R.latency("closed_p50_ms", Client.LatMs, 50);
  R.latency("closed_p90_ms", Client.LatMs, 90);
  R.latency("closed_p99_ms", Client.LatMs, 99);
  R.attempt(Client.Submitted);
  R.failure("shed", Client.Shed);
  R.failure("deadline_exceeded", Client.Deadline);
  R.failure("failed", Client.Failed);
  const RungStats &Nom = Res[kNominal], &High = Res[kHigh];
  R.latency("query_p50_ms", Nom.LatMs, 50);
  R.latency("query_p99_ms", Nom.LatMs, 99);
  R.latency("query_p90_ms", Nom.LatMs, 90);
  R.latency("query_p99_ms_high", High.LatMs, 99);
  R.latency("premium_p99_ms_high", High.PremiumMs, 99);
  double MaxQps = 0;
  for (size_t I = 0; I < Res.size(); ++I) {
    const RungStats &Rg = Res[I];
    const double FailRate = static_cast<double>(Rg.failures()) /
                            static_cast<double>(std::max<uint64_t>(1, Rg.Submitted));
    const bool Meets = Rg.LatMs.supports(99) &&
                       Rg.LatMs.percentile(99) <= kPremiumSloMs &&
                       FailRate <= 0.01 && Rg.QueueDepthEnd <= 64 &&
                       (Rg.LagMs.empty() || Rg.LagMs.percentile(99) <= 5.0);
    if (Meets)
      MaxQps = std::max(MaxQps, Rg.Offered);
    char Key[48];
    std::snprintf(Key, sizeof(Key), "rung_%zu", I);
    R.config(std::string(Key) + "_qps", Rg.Offered);
    R.config(std::string(Key) + "_p99_ms",
             Rg.LatMs.supports(99) ? Rg.LatMs.percentile(99) : -1);
    R.config(std::string(Key) + "_fail_rate", FailRate);
    R.config(std::string(Key) + "_meets", Meets ? 1 : 0);
  }
  R.metric("max_qps", MaxQps, "qps", Res.size());
  for (size_t I : {kNominal, kHigh}) {
    R.attempt(Res[I].Submitted);
    R.failure("shed", Res[I].Shed);
    R.failure("deadline_exceeded", Res[I].Deadline);
    R.failure("failed", Res[I].Failed);
  }
  reportWrites(S.Writes, R);
  R.config("write_batches", static_cast<double>(S.Writes.Batches));
  R.config("compactions", static_cast<double>(S.Store->compactions()));

  if (Cfg.Trace) {
    const uint64_t NH = Nom.Submitted + High.Submitted;
    R.metric("bench.trace_overhead",
             Client.LatMs.median() / Plain.LatMs.median() - 1.0, "ratio",
             Client.LatMs.size() + Plain.LatMs.size());
    Samples Lag;
    for (const RungStats &Rg : Res)
      Lag.append(Rg.LagMs);
    R.latency("bench.gen_lag_ms_p99", Lag, 99);
    R.latency("bench.write_lag_ms_p99", S.Writes.LagMs, 99);
    R.latency("engine.submit_us_p99", High.SubmitUs, 99, "us");
    R.latency("engine.wait_ms_p50", High.WaitMs, 50);
    R.latency("engine.wait_ms_p99", High.WaitMs, 99);
    size_t Depth = 0;
    for (const RungStats &Rg : Res)
      Depth = std::max(Depth, Rg.QueueDepthMax);
    R.metric("engine.queue_depth_max", static_cast<double>(Depth), "count",
             Res.size());
    R.metric("engine.batch_window_us_max",
             static_cast<double>(S.Engine->maxBatchWindowMicros()), "us", 1);
    R.latency("engine.run_ms_p50", Nom.RunMs, 50);
    R.latency("engine.run_ms_p99", Nom.RunMs, 99);
    R.metric("engine.class_p99_ratio",
             High.PremiumMs.percentile(99) /
                 std::max(1e-9, High.BulkMs.percentile(99)),
             "ratio", High.PremiumMs.size() + High.BulkMs.size());
    R.metric("engine.ctl_tightens",
             static_cast<double>(S.Engine->controllerTightens()), "count", 1);
    const double NHd = static_cast<double>(std::max<uint64_t>(1, NH));
    R.metric("engine.shed_rate",
             static_cast<double>(Nom.Shed + High.Shed) / NHd, "ratio", NH);
    R.metric("engine.deadline_rate",
             static_cast<double>(Nom.Deadline + High.Deadline) / NHd, "ratio",
             NH);
    R.metric("engine.degraded_rate",
             static_cast<double>(Nom.Degraded + High.Degraded) / NHd, "ratio",
             NH);

    // Store layer: the traced batches replayed on a replica store, timed
    // directly.
    {
      SnapshotStore Replica(S.Base, routingStoreOptions());
      double FoldMax = 0;
      Samples Apply;
      for (double Ms : replayOnStore(Replica, S.Writes, FoldMax))
        Apply.add(Ms);
      R.latency("store.apply_ms_p50", Apply, 50);
      R.latency("store.apply_ms_p99", Apply, 99);
      R.metric("store.fold_apply_ms_max", FoldMax, "ms", Apply.size());
    }
    R.metric("store.folds", static_cast<double>(S.Store->compactions()),
             "count", 1);
    R.metric("store.overlay_frac",
             static_cast<double>(S.Store->current()->overlayEdges()) /
                 static_cast<double>(S.Base.numEdges()),
             "ratio", 1);
    R.metric("store.degraded", S.Store->degraded() ? 1 : 0, "count", 1);

    // Graph and algorithm layers: a fixed 1-thread query set on the pinned
    // final snapshot.
    const SnapshotStore::Snapshot Snap = S.Store->current();
    const Graph Flat = Snap->compact();
    std::vector<std::pair<VertexId, VertexId>> Probe(
        Traffic.Pairs.begin(), Traffic.Pairs.begin() + 256);
    {
      Scope Sp("probe.delta_tax");
      R.metric("graph.delta_tax", viewTax(*Snap, Flat, Probe, 5), "ratio", 5);
    }
    {
      Scope Sp("probe.algorithms");
      Schedule Sch;
      Sch.Delta = kDelta;
      DistanceState St(Flat.numNodes());
      Samples Pooled, Fresh, Astar;
      for (int Rep = 0; Rep < 5; ++Rep) {
        Clock::time_point T0 = Clock::now();
        for (const auto &[A, B] : Probe)
          pointToPointShortestPath(*Snap, A, B, Sch, St);
        Pooled.add(msBetween(T0, Clock::now()));
        T0 = Clock::now();
        for (const auto &[A, B] : Probe)
          pointToPointShortestPath(*Snap, A, B, Sch);
        Fresh.add(msBetween(T0, Clock::now()));
        T0 = Clock::now();
        for (const auto &[A, B] : Probe)
          aStarSearch(*Snap, A, B, Sch, St);
        Astar.add(msBetween(T0, Clock::now()));
      }
      const double N = static_cast<double>(Probe.size());
      R.metric("algorithms.pooled_speedup", Fresh.median() / Pooled.median(),
               "ratio", 5);
      R.metric("algorithms.ppsp_ms", Pooled.median() / N, "ms", 5 * Probe.size());
      R.metric("algorithms.astar_ms", Astar.median() / N, "ms", 5 * Probe.size());
    }
  }

  Tracer::get().setEnabled(false);

  // Oracle: engine answers on the quiesced final snapshot.
  verifyAnswers(*S.Engine, *S.Store,
                localGridQueryPairs(kSide, kSide, kSide / 24, 200,
                                    Cfg.Seed ^ 0xC4EC),
                R);
}

void runLiveDepots(const RunConfig &Cfg, Report &R) {
  DepotSetup S;
  Samples Setup;
  for (int I = 0; I < kSetupReps; ++I) {
    const Clock::time_point T0 = Clock::now();
    setUpDepots(S, Cfg.Seed);
    Setup.add(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.metric("setup_s", Setup.median(), "s", Setup.size());
  const ShardedSnapshotStore::Options SO = depotStoreOptions();
  R.config("rows", static_cast<double>(kSide));
  R.config("vertices", static_cast<double>(S.Base.numNodes()));
  R.config("edges", static_cast<double>(S.Base.numEdges()));
  R.config("csr_mib", static_cast<double>(S.Base.numNodes() * 8 +
                                          S.Base.numEdges() * sizeof(WNode)) /
                          (1 << 20));
  // Eight full distance states (8 bytes per vertex each) live in the cache.
  R.config("hot_state_mib", static_cast<double>(kDepots) *
                                static_cast<double>(S.Base.numNodes()) * 8 /
                                (1 << 20));
  R.config("delta", static_cast<double>(kDelta));
  R.config("engine_workers", 1);
  R.config("bench_threads", 2); // closed-loop client, writer
  R.config("omp_threads_per_query", 1);
  R.config("shards", SO.NumShards);
  R.config("compaction_threshold", SO.CompactionThreshold);
  R.config("closed_loop_in_flight", 2);
  R.config("cold_share", kColdShare);
  R.config("writes_per_s", kDepotWritesPerSec);
  R.config("small_batch_edges", static_cast<double>(kDepotSmallEdges));
  R.config("large_batch_edges", static_cast<double>(kDepotLargeEdges));
  R.config("large_batch_share", 1.0 / static_cast<double>(kLargeEvery));
  R.config("update_shape", "congest x3 / restore toggles over a fixed pool");

  DepotTraffic Traffic(S.Depots, Cfg.Seed ^ 0x77);
  const uint64_t HitsBefore = S.Engine->hotHits();
  uint64_t Seq = 0;
  const WriteStream Writes{kDepotWritesPerSec, kDepotSmallEdges,
                           kDepotLargeEdges, kLargeEvery};
  auto Phase = [&](double Seconds, uint64_t Seed) {
    return withWriter(*S.Engine, *S.Pool, S.Writes, Writes, Seconds, Seed,
                      Seq, [&] {
                        return runClosedLoop(*S.Engine, Seconds, Traffic);
                      });
  };

  RungStats Res, Plain;
  uint64_t HitsTracedFrom = 0;
  const uint64_t RepairsBefore = S.Engine->hotRepairs();
  if (Cfg.Trace) {
    Plain = Phase(0.25 * Cfg.Seconds, Cfg.Seed ^ 1);
    HitsTracedFrom = S.Engine->hotHits();
    Tracer::get().setEnabled(true);
    Res = Phase(0.75 * Cfg.Seconds, Cfg.Seed);
  } else {
    Res = Phase(Cfg.Seconds, Cfg.Seed);
  }

  R.metric("peak_rss_mb", peakRssMiB(), "MiB", 1);
  R.latency("p50_ms", Res.LatMs, 50);
  R.latency("tail_ms", Res.LatMs, 90);
  R.latency("query_p50_ms", Res.LatMs, 50);
  R.latency("query_p99_ms", Res.LatMs, 99);
  R.latency("query_p90_ms", Res.LatMs, 90);
  R.attempt(Res.Submitted + Plain.Submitted);
  R.failure("shed", Res.Shed + Plain.Shed);
  R.failure("deadline_exceeded", Res.Deadline + Plain.Deadline);
  R.failure("failed", Res.Failed + Plain.Failed);
  reportWrites(S.Writes, R);
  R.config("write_batches", static_cast<double>(S.Writes.Batches));
  R.config("large_batches", static_cast<double>(S.Writes.Large));
  uint64_t Folds = 0;
  for (int Sh = 0; Sh < S.Store->numShards(); ++Sh)
    Folds += S.Store->shardFolds(Sh);
  R.config("folds", static_cast<double>(Folds));
  R.config("load_hot_repairs",
           static_cast<double>(S.Engine->hotRepairs() - RepairsBefore));
  R.config("hot_hit_rate",
           static_cast<double>(S.Engine->hotHits() - HitsBefore) /
               static_cast<double>(std::max<uint64_t>(
                   1, Res.DepotQueries + Plain.DepotQueries)));

  if (Cfg.Trace) {
    R.metric("bench.trace_overhead",
             Res.LatMs.median() / Plain.LatMs.median() - 1.0, "ratio",
             Res.LatMs.size() + Plain.LatMs.size());
    R.latency("bench.write_lag_ms_p99", S.Writes.LagMs, 99);
    R.latency("engine.submit_us_p99", Res.SubmitUs, 99, "us");
    R.latency("engine.wait_ms_p50", Res.WaitMs, 50);
    R.latency("engine.wait_ms_p99", Res.WaitMs, 99);
    R.latency("engine.run_ms_p50", Res.RunMs, 50);
    R.latency("engine.run_ms_p99", Res.RunMs, 99);
    R.metric("hot_cache.hit_rate",
             static_cast<double>(S.Engine->hotHits() - HitsTracedFrom) /
                 static_cast<double>(std::max<uint64_t>(1, Res.DepotQueries)),
             "ratio", Res.DepotQueries);

    // Store layer: the load's traced batches replayed on a replica store.
    ShardedSnapshotStore Replica(S.Base, depotStoreOptions());
    double FoldMax = 0;
    Samples StoreApply;
    for (double Ms : replayOnStore(Replica, S.Writes, FoldMax))
      StoreApply.add(Ms);
    R.latency("store.apply_ms_p50", StoreApply, 50);
    R.latency("store.apply_ms_p99", StoreApply, 99);
    R.metric("store.fold_apply_ms_max", FoldMax, "ms", StoreApply.size());
    R.metric("store.folds", static_cast<double>(Folds), "count", 1);
    const ShardedSnapshotStore::Snapshot Snap = S.Store->current();
    Count Overlay = 0;
    for (int Sh = 0; Sh < Snap->numShards(); ++Sh)
      Overlay += Snap->shard(Sh).overlayEdges();
    R.metric("store.overlay_frac",
             static_cast<double>(Overlay) /
                 static_cast<double>(S.Base.numEdges()),
             "ratio", 1);
    R.metric("store.degraded", S.Store->degraded() ? 1 : 0, "count", 1);

    const Graph Flat = Snap->compact();
    {
      Scope Sp("probe.sharded_tax");
      std::vector<std::pair<VertexId, VertexId>> Probe(
          Traffic.Cold.begin(), Traffic.Cold.begin() + 256);
      R.metric("graph.sharded_tax", viewTax(*Snap, Flat, Probe, 5), "ratio",
               5);
    }
  }

  // Hot-state repair, measured (traced) and checked (always) where it can
  // run: a fold-free replica, since a fold drops every hot state.
  repairProbe(S, Cfg.Seed, Cfg.Trace ? kProbeBatches : 10, Cfg.Trace, R);
  Tracer::get().setEnabled(false);

  // Oracle: a sample of engine answers on the quiesced final snapshot.
  verifyAnswers(*S.Engine, *S.Store,
                localGridQueryPairs(kSide, kSide, kSide / 24, 200,
                                    Cfg.Seed ^ 0xC4EC),
                R);
}

} // namespace perfbench
