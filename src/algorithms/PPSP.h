//===- algorithms/PPSP.h - Point-to-point shortest path ---------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Point-to-point shortest path (§6.1): Δ-stepping with priority
/// coarsening, terminating early once the algorithm enters iteration i with
/// iΔ ≥ the best distance already found for the destination — at that point
/// the destination's distance is final.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_PPSP_H
#define GRAPHIT_ALGORITHMS_PPSP_H

#include "core/OrderedProcess.h"
#include "core/Schedule.h"
#include "graph/Graph.h"
#include "support/Cancellation.h"

namespace graphit {

/// Result of a point-to-point query.
struct PPSPResult {
  Priority Dist = kInfiniteDistance; ///< kInfiniteDistance if unreachable
  OrderedStats Stats;
  /// True when the run stopped early — deadline/cancellation or a
  /// RunLimits::MaxDistance budget — before the target was provably
  /// settled. Dist is then kInfiniteDistance even though a tentative
  /// finite value may exist: only provable answers are reported. A run
  /// whose token fired after the target settled is NOT interrupted (the
  /// answer is exact either way).
  bool Interrupted = false;
  /// When Interrupted: every true distance strictly below this bound was
  /// settled when the run stopped (kInfiniteDistance otherwise).
  Priority SettledBound = kInfiniteDistance;
};

/// Shortest-path distance from \p Source to \p Target with early exit.
PPSPResult pointToPointShortestPath(const Graph &G, VertexId Source,
                                    VertexId Target, const Schedule &S);

class DistanceState;
class ShardedDeltaView;

/// Pooled-state variant (O(touched) setup; see algorithms/QueryState.h).
/// Calls `State.beginQuery(Source)` itself. \p Limits optionally bounds
/// the run (cooperative cancellation and/or a distance budget), both
/// checked only at bucket-round boundaries.
PPSPResult pointToPointShortestPath(const Graph &G, VertexId Source,
                                    VertexId Target, const Schedule &S,
                                    DistanceState &State,
                                    const RunLimits &Limits = RunLimits{});

/// Live-graph variants over a snapshot store's published view
/// (graph/DeltaGraph.h ShardedDeltaView): per-vertex reads route to the
/// owning shard's overlay; the algorithm core is shared.
PPSPResult pointToPointShortestPath(const ShardedDeltaView &G,
                                    VertexId Source, VertexId Target,
                                    const Schedule &S);
PPSPResult pointToPointShortestPath(const ShardedDeltaView &G,
                                    VertexId Source, VertexId Target,
                                    const Schedule &S, DistanceState &State,
                                    const RunLimits &Limits = RunLimits{});

namespace detail {

/// Maps a point query's raw outcome to its result, shared by the PPSP and
/// A* cores. \p BudgetKey is the round key at which a
/// RunLimits::MaxDistance budget stopped the run (kMaxEagerKey if it did
/// not). A run that was cancelled or budget-stopped reports the target's
/// distance only if it is provably settled — strictly below the stop
/// key's priority bound — and flags itself Interrupted otherwise.
inline PPSPResult interruptiblePointResult(Priority TargetDist,
                                           const OrderedStats &Stats,
                                           int64_t Delta,
                                           int64_t BudgetKey) {
  PPSPResult R;
  R.Stats = Stats;
  const bool BudgetStop = BudgetKey != kMaxEagerKey;
  if (!Stats.Cancelled && !BudgetStop) {
    R.Dist = TargetDist;
    return R;
  }
  const int64_t StopKey = Stats.Cancelled ? Stats.CancelKey : BudgetKey;
  const Priority Bound = StopKey * Delta;
  if (TargetDist != kInfiniteDistance && TargetDist < Bound) {
    R.Dist = TargetDist; // settled before the interruption: exact anyway
    return R;
  }
  R.Interrupted = true;
  R.SettledBound = Bound;
  return R;
}

} // namespace detail

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_PPSP_H
