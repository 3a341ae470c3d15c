//===- perfbench/src/BatchWorkloads.cpp - road_batch and social_batch -----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The two batch workloads: a closed loop of passes over a fixed list of
// ordered-algorithm jobs on one plain CSR graph, every job at `nproc`
// OpenMP threads. Each pass's answers are checked against oracles computed
// before timing starts (serial Dijkstra, serial k-core peeling, cover
// validity), outside the timed region.
//
//  road_batch   — 1500 x 1500 road grid (2.25M vertices, ~9M directed
//                 edges): eager SSSP with fusion, lazy SSSP, long-haul
//                 PPSP, long-haul A*. Thousands of near-empty bucket
//                 rounds: the paper's bucket-fusion regime.
//  social_batch — symmetric RMAT, scale 18: small-Δ SSSP from giant-
//                 component sources, k-core (lazy and lazy_constant_sum),
//                 approximate set cover. Few heavy rounds; bulk bucket
//                 updates in the lazy queue.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "algorithms/AStar.h"
#include "algorithms/Dijkstra.h"
#include "algorithms/KCore.h"
#include "algorithms/PPSP.h"
#include "algorithms/SSSP.h"
#include "algorithms/SetCover.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "support/Random.h"

#include <algorithm>
#include <functional>
#include <omp.h>
#include <string>
#include <vector>

using namespace graphit;

namespace perfbench {
namespace {

constexpr Count kRoadSide = 1500;
constexpr int64_t kRoadDelta = 8192;
constexpr int kSocialScale = 18;
constexpr int kSocialDegree = 16;
constexpr int64_t kSocialDelta = 32;
constexpr int kSocialSources = 4;
constexpr uint64_t kSocialTopologySeed = 0xA001;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Back-to-back trials of each job per pass; the fastest one counts.
constexpr int kTrials = 3;

/// What one job run produced, for the oracle check and the core counters.
struct JobOutput {
  OrderedStats Stats;
  bool Ok = true;
  std::string Why;
};

/// One entry of a workload's fixed job list.
struct Job {
  const char *Span;   ///< span / metric family name, e.g. "job.sssp"
  std::function<JobOutput()> Run;
};

Schedule sched(UpdateStrategy U, int64_t Delta) {
  Schedule S;
  S.Update = U;
  S.Delta = Delta;
  return S;
}

bool sameDistances(const std::vector<Priority> &A,
                   const std::vector<Priority> &B) {
  return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
}

Count reachedCount(const std::vector<Priority> &D) {
  return static_cast<Count>(std::count_if(
      D.begin(), D.end(), [](Priority P) { return P != kInfiniteDistance; }));
}

/// Per-job and per-pass timings of the measured loop.
struct LoopResult {
  std::vector<Samples> JobMs; ///< indexed like the job list
  Samples PassMs;
};

/// Runs passes over \p Jobs until \p Seconds have elapsed (at least one).
/// A pass runs each job kTrials times back to back and keeps its fastest
/// time, the best-of-N the repository's own benchmarks report: another
/// tenant of the host slows single trials by up to 2x, and the fastest of
/// three rarely meets such a moment. Every trial is checked against its
/// oracle; the checks run between trials, untimed.
LoopResult runPasses(const std::vector<Job> &Jobs, double Seconds,
                     Report &R) {
  LoopResult L;
  L.JobMs.resize(Jobs.size());
  const Clock::time_point Start = Clock::now();
  do {
    Scope Pass("pass");
    double PassMs = 0;
    for (size_t J = 0; J < Jobs.size(); ++J) {
      double Best = 0;
      for (int T = 0; T < kTrials; ++T) {
        JobOutput Out;
        const Clock::time_point T0 = Clock::now();
        {
          Scope S(Jobs[J].Span, Pass.id());
          Out = Jobs[J].Run();
        }
        const double Ms = msBetween(T0, Clock::now());
        Best = T == 0 ? Ms : std::min(Best, Ms);
        R.attempt();
        if (!Out.Ok)
          R.mismatch(std::string(Jobs[J].Span) + ": " + Out.Why);
      }
      PassMs += Best;
      L.JobMs[J].add(Best);
    }
    L.PassMs.add(PassMs);
  } while (msBetween(Start, Clock::now()) < Seconds * 1000.0);
  return L;
}

/// Median of \p Reps set-ups (graph generation, CSR build, one warm-up
/// pass); the graph of the last one is kept.
template <class BuildFn, class WarmFn>
void timedSetup(BuildFn &&Build, WarmFn &&Warm, Report &R) {
  Samples S;
  for (int I = 0; I < kSetupReps; ++I) {
    const Clock::time_point T0 = Clock::now();
    Build();
    Warm();
    S.add(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.metric("setup_s", S.median(), "s", S.size());
}

/// Times \p A and \p B alternately \p Pairs times; returns median(A) /
/// median(B).
double interleavedRatio(const std::function<void()> &A,
                        const std::function<void()> &B, int Pairs) {
  Samples SA, SB;
  for (int I = 0; I < Pairs; ++I) {
    Clock::time_point T0 = Clock::now();
    A();
    SA.add(msBetween(T0, Clock::now()));
    T0 = Clock::now();
    B();
    SB.add(msBetween(T0, Clock::now()));
  }
  return SA.median() / SB.median();
}

/// Shared tail of both batch workloads: the measured loop (split into an
/// untraced and a traced half when tracing), end-to-end metrics, and the
/// per-job algorithm spans.
LoopResult measure(const RunConfig &Cfg, const std::vector<Job> &Jobs,
                   Report &R) {
  LoopResult L;
  if (Cfg.Trace) {
    LoopResult Plain = runPasses(Jobs, Cfg.Seconds / 2, R);
    Tracer::get().setEnabled(true);
    L = runPasses(Jobs, Cfg.Seconds / 2, R);
    Tracer::get().setEnabled(false);
    R.metric("bench.trace_overhead",
             L.PassMs.median() / Plain.PassMs.median() - 1.0, "ratio",
             L.PassMs.size() + Plain.PassMs.size());
  } else {
    L = runPasses(Jobs, Cfg.Seconds, R);
  }
  R.metric("p50_ms", L.PassMs.median(), "ms", L.PassMs.size(),
           L.PassMs.supports(50) ? "" : "median of fewer than 21 passes");
  R.metric("solve_s", L.PassMs.median() / 1000.0, "s", L.PassMs.size());
  double Slowest = 0;
  for (size_t J = 0; J < Jobs.size(); ++J) {
    Slowest = std::max(Slowest, L.JobMs[J].median());
    R.metric(std::string("job_ms.") + (Jobs[J].Span + 4),
             L.JobMs[J].median(), "ms", L.JobMs[J].size());
  }
  R.metric("tail_ms", Slowest, "ms", L.PassMs.size(),
           "median of the slowest job in the list");
  R.config("passes", static_cast<double>(L.PassMs.size()));
  return L;
}

/// Core-layer counters of one eager run plus the fusion and thread-count
/// probes on the same job.
void coreLayer(const OrderedStats &St, Count Reached,
               const std::function<SSSPResult(const Schedule &)> &Solve,
               int64_t Delta, int Threads, Report &R) {
  R.metric("core.rounds", static_cast<double>(St.Rounds), "count", 1);
  R.metric("core.fused_share",
           static_cast<double>(St.FusedRounds) /
               static_cast<double>(std::max<int64_t>(1, St.totalRounds())),
           "ratio", 1);
  R.metric("core.work_ratio",
           static_cast<double>(St.VerticesProcessed) /
               static_cast<double>(std::max<Count>(1, Reached)),
           "ratio", 1);
  R.metric("core.overflow_rebuckets", static_cast<double>(St.OverflowRebuckets),
           "count", 1);
  const Schedule Fused = sched(UpdateStrategy::EagerWithFusion, Delta);
  const Schedule Unfused = sched(UpdateStrategy::EagerNoFusion, Delta);
  {
    Scope S("probe.fusion");
    R.metric("core.fusion_speedup",
             interleavedRatio([&] { Solve(Unfused); }, [&] { Solve(Fused); },
                              3),
             "ratio", 3);
  }
  {
    Scope S("probe.threads");
    const double Ratio = interleavedRatio(
        [&] {
          omp_set_num_threads(1);
          Solve(Fused);
          omp_set_num_threads(Threads);
        },
        [&] { Solve(Fused); }, 2);
    R.metric("core.thread_speedup", Ratio, "ratio", 2);
  }
}

void algorithmSpan(const char *Metric, const Samples &Ms, Report &R) {
  R.metric(Metric, Ms.median() / 1000.0, "s", Ms.size());
}

} // namespace

void runRoadBatch(const RunConfig &Cfg, Report &R) {
  const Count Side = kRoadSide;
  R.config("graph", "roadGrid");
  R.config("rows", static_cast<double>(Side));
  R.config("delta", static_cast<double>(kRoadDelta));

  // Fixed positions, jittered by the seed inside small boxes so every seed
  // solves a job of the same shape: SSSP from near the centre, long haul
  // from near one corner to near the opposite one.
  SplitMix64 Rng(Cfg.Seed * 0x9E3779B97F4A7C15ULL + 1);
  const Count Box = Side / 20;
  const VertexId Src = static_cast<VertexId>(
      (Side / 2 + Rng.nextInt(0, Box)) * Side + Side / 2 + Rng.nextInt(0, Box));
  const VertexId From = static_cast<VertexId>(Rng.nextInt(0, Box) * Side +
                                              Rng.nextInt(0, Box));
  const VertexId To = static_cast<VertexId>(
      (Side - 1 - Rng.nextInt(0, Box)) * Side + (Side - 1 - Rng.nextInt(0, Box)));
  R.config("sssp_source", static_cast<double>(Src));
  R.config("long_haul_from", static_cast<double>(From));
  R.config("long_haul_to", static_cast<double>(To));

  const Schedule Fused = sched(UpdateStrategy::EagerWithFusion, kRoadDelta);
  const Schedule Lazy = sched(UpdateStrategy::Lazy, kRoadDelta);
  Graph G;
  std::vector<Priority> WantSSSP;
  Priority WantLong = 0;
  bool Warm = false; // warm-up runs skip the oracle comparison
  SSSPResult LastEager, LastLazy;

  std::vector<Job> Jobs = {
      {"job.sssp",
       [&] {
         SSSPResult Res = deltaSteppingSSSP(G, Src, Fused);
         JobOutput O{Res.Stats, Warm || sameDistances(Res.Dist, WantSSSP),
                     "eager SSSP distances"};
         LastEager = std::move(Res);
         return O;
       }},
      {"job.sssp_lazy",
       [&] {
         SSSPResult Res = deltaSteppingSSSP(G, Src, Lazy);
         JobOutput O{Res.Stats, Warm || sameDistances(Res.Dist, WantSSSP),
                     "lazy SSSP distances"};
         LastLazy = std::move(Res);
         return O;
       }},
      {"job.ppsp_long",
       [&] {
         PPSPResult Res = pointToPointShortestPath(G, From, To, Fused);
         return JobOutput{Res.Stats, Warm || Res.Dist == WantLong,
                          "long-haul PPSP distance"};
       }},
      {"job.astar_long",
       [&] {
         PPSPResult Res = aStarSearch(G, From, To, Fused);
         return JobOutput{Res.Stats, Warm || Res.Dist == WantLong,
                          "long-haul A* distance"};
       }},
  };

  timedSetup(
      [&] {
        G = Graph();
        RoadNetwork Net = roadGrid(Side, Side, Cfg.Seed);
        BuildOptions O;
        O.Symmetrize = true;
        G = GraphBuilder(O).build(Net.NumNodes, std::move(Net.Edges),
                                  std::move(Net.Coords));
      },
      [&] {
        Warm = true;
        for (const Job &J : Jobs)
          J.Run();
        Warm = false;
      },
      R);
  R.config("vertices", static_cast<double>(G.numNodes()));
  R.config("edges", static_cast<double>(G.numEdges()));
  // CSR footprint: offsets + packed (id, weight) rows, both directions
  // shared on a symmetric graph; next to the 8 MiB L2 / 300 MiB LLC.
  R.config("csr_mib", static_cast<double>(G.numNodes() * 8 +
                                          G.numEdges() * sizeof(WNode)) /
                          (1 << 20));

  // Oracles, outside every timed region.
  WantSSSP = dijkstraSSSP(G, Src);
  WantLong = dijkstraPPSP(G, From, To);

  LoopResult L = measure(Cfg, Jobs, R);
  R.metric("peak_rss_mb", peakRssMiB(), "MiB", 1);
  if (!Cfg.Trace)
    return;

  algorithmSpan("algorithms.sssp_s", L.JobMs[0], R);
  algorithmSpan("algorithms.sssp_lazy_s", L.JobMs[1], R);
  algorithmSpan("algorithms.ppsp_long_s", L.JobMs[2], R);
  algorithmSpan("algorithms.astar_long_s", L.JobMs[3], R);
  R.metric("runtime.lazy_rounds", static_cast<double>(LastLazy.Stats.Rounds),
           "count", 1);
  R.metric("runtime.lazy_over_eager",
           L.JobMs[1].median() / L.JobMs[0].median(), "ratio",
           L.JobMs[0].size());
  coreLayer(LastEager.Stats, reachedCount(LastEager.Dist),
            [&](const Schedule &S) { return deltaSteppingSSSP(G, Src, S); },
            kRoadDelta, Cfg.Threads, R);
}

void runSocialBatch(const RunConfig &Cfg, Report &R) {
  R.config("graph", "rmat");
  R.config("scale", kSocialScale);
  R.config("avg_degree", kSocialDegree);
  R.config("delta", static_cast<double>(kSocialDelta));

  const Schedule Fused = sched(UpdateStrategy::EagerWithFusion, kSocialDelta);
  const Schedule KLazy = sched(UpdateStrategy::Lazy, 1);
  const Schedule KSum = sched(UpdateStrategy::LazyConstantSum, 1);
  const Schedule Cover = sched(UpdateStrategy::Lazy, 1);
  Graph G;
  std::vector<VertexId> Sources;
  std::vector<std::vector<Priority>> WantSSSP;
  std::vector<Priority> WantCore;
  bool Warm = false;
  SSSPResult FirstEager;
  KCoreResult LastLazyCore;

  std::vector<Job> Jobs;
  Jobs.push_back({"job.sssp", [&] {
                    JobOutput O;
                    for (size_t I = 0; I < Sources.size(); ++I) {
                      SSSPResult Res = deltaSteppingSSSP(G, Sources[I], Fused);
                      O.Stats.merge(Res.Stats);
                      if (!Warm && !sameDistances(Res.Dist, WantSSSP[I])) {
                        O.Ok = false;
                        O.Why = "SSSP distances";
                      }
                      if (I == 0)
                        FirstEager = std::move(Res);
                    }
                    return O;
                  }});
  auto KCoreJob = [&](const Schedule &S, bool Keep) {
    return [&, S, Keep] {
      KCoreResult Res = kCoreDecomposition(G, S);
      JobOutput O{Res.Stats, Warm || sameDistances(Res.Coreness, WantCore),
                  "coreness"};
      if (Keep)
        LastLazyCore = std::move(Res);
      return O;
    };
  };
  Jobs.push_back({"job.kcore_lazy", KCoreJob(KLazy, true)});
  Jobs.push_back({"job.kcore_sum", KCoreJob(KSum, false)});
  Jobs.push_back({"job.setcover", [&] {
                    SetCoverResult Res =
                        approxSetCover(G, Cover, 0.01, Cfg.Seed);
                    return JobOutput{Res.Stats,
                                     Warm || isValidCover(G, Res.ChosenSets),
                                     "set cover leaves a vertex uncovered"};
                  }});

  timedSetup(
      [&] {
        G = Graph();
        // One fixed R-MAT topology (its k-core and set-cover work varies
        // too much between instances for a steady run-to-run figure); the
        // seed draws the weights, the SSSP sources and the cover's coins.
        std::vector<Edge> E =
            rmatEdges(kSocialScale, kSocialDegree, kSocialTopologySeed);
        assignRandomWeights(E, 1, 1000, Cfg.Seed ^ 0xFEED);
        BuildOptions O;
        O.Symmetrize = true;
        G = GraphBuilder(O).build(Count{1} << kSocialScale, std::move(E));
        // Giant-component sources: the highest-degree vertices of a
        // seeded sample (an R-MAT hub is always in the giant component).
        SplitMix64 Rng(Cfg.Seed ^ 0x50C1A1);
        std::vector<VertexId> Sample;
        for (int I = 0; I < 256; ++I)
          Sample.push_back(static_cast<VertexId>(Rng.nextInt(0, G.numNodes())));
        std::sort(Sample.begin(), Sample.end(), [&](VertexId A, VertexId B) {
          return G.outDegree(A) != G.outDegree(B)
                     ? G.outDegree(A) > G.outDegree(B)
                     : A < B;
        });
        Sample.erase(std::unique(Sample.begin(), Sample.end()), Sample.end());
        Sources.assign(Sample.begin(), Sample.begin() + kSocialSources);
      },
      [&] {
        Warm = true;
        for (const Job &J : Jobs)
          J.Run();
        Warm = false;
      },
      R);
  R.config("vertices", static_cast<double>(G.numNodes()));
  R.config("edges", static_cast<double>(G.numEdges()));
  R.config("csr_mib", static_cast<double>(G.numNodes() * 8 +
                                          G.numEdges() * sizeof(WNode)) /
                          (1 << 20));
  R.config("sssp_sources", static_cast<double>(Sources.size()));

  for (VertexId S : Sources)
    WantSSSP.push_back(dijkstraSSSP(G, S));
  WantCore = kCoreSerial(G);

  LoopResult L = measure(Cfg, Jobs, R);
  R.metric("peak_rss_mb", peakRssMiB(), "MiB", 1);
  if (!Cfg.Trace)
    return;

  algorithmSpan("algorithms.sssp_s", L.JobMs[0], R);
  // One k-core figure per pass: both strategies' job times summed.
  Samples KCore;
  for (size_t I = 0; I < L.JobMs[1].size(); ++I)
    KCore.add(L.JobMs[1].values()[I] + L.JobMs[2].values()[I]);
  algorithmSpan("algorithms.kcore_s", KCore, R);
  algorithmSpan("algorithms.setcover_s", L.JobMs[3], R);
  R.metric("runtime.lazy_rounds",
           static_cast<double>(LastLazyCore.Stats.Rounds), "count", 1);
  const VertexId Src = Sources.front();
  {
    Scope S("probe.lazy");
    R.metric("runtime.lazy_over_eager",
             interleavedRatio(
                 [&] {
                   deltaSteppingSSSP(
                       G, Src, sched(UpdateStrategy::Lazy, kSocialDelta));
                 },
                 [&] { deltaSteppingSSSP(G, Src, Fused); }, 3),
             "ratio", 3);
  }
  coreLayer(FirstEager.Stats, reachedCount(FirstEager.Dist),
            [&](const Schedule &S) { return deltaSteppingSSSP(G, Src, S); },
            kSocialDelta, Cfg.Threads, R);
}

} // namespace perfbench
