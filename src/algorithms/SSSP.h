//===- algorithms/SSSP.h - Δ-stepping shortest paths ------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-source shortest paths with Δ-stepping (Fig. 3/5/6/7 of the
/// paper), the running example of the whole paper. The schedule selects
/// eager (with/without bucket fusion) or lazy bucket updates, the traversal
/// direction, and the coarsening factor Δ.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_SSSP_H
#define GRAPHIT_ALGORITHMS_SSSP_H

#include "core/OrderedProcess.h"
#include "core/Schedule.h"
#include "graph/Graph.h"
#include "support/Cancellation.h"

#include <vector>

namespace graphit {

/// Result of a single-source distance computation. Unreached vertices hold
/// kInfiniteDistance.
struct SSSPResult {
  std::vector<Priority> Dist;
  OrderedStats Stats;
};

/// Δ-stepping SSSP from \p Source under schedule \p S. Requires
/// non-negative edge weights.
SSSPResult deltaSteppingSSSP(const Graph &G, VertexId Source,
                             const Schedule &S);

class DistanceState;
class DeltaGraph;

/// Pooled-state variant: runs over caller-owned, reusable state instead of
/// allocating a fresh distance array (O(touched) setup instead of O(V);
/// see algorithms/QueryState.h). Calls `State.beginQuery(Source)` itself;
/// distances live in \p State afterwards.
///
/// \p Cancel optionally interrupts the run at a bucket-round boundary;
/// the returned stats then carry `Cancelled` and `CancelKey`, and every
/// distance strictly below `CancelKey * S.Delta` in the state is exact
/// (the settled prefix of the full answer).
OrderedStats deltaSteppingSSSP(const Graph &G, VertexId Source,
                               const Schedule &S, DistanceState &State,
                               const CancelToken *Cancel = nullptr);

/// Variants over a bare delta overlay (graph/DeltaGraph.h) — the reference
/// overlay the store tests check served answers against: identical
/// semantics, unified neighbor iteration through the overlay.
SSSPResult deltaSteppingSSSP(const DeltaGraph &G, VertexId Source,
                             const Schedule &S);
OrderedStats deltaSteppingSSSP(const DeltaGraph &G, VertexId Source,
                               const Schedule &S, DistanceState &State,
                               const CancelToken *Cancel = nullptr);

class ShardedDeltaView;

/// Live-graph variants over a snapshot store's published view
/// (graph/DeltaGraph.h ShardedDeltaView): per-vertex reads route to the
/// owning shard's overlay; results are bit-identical to running over an
/// equivalent single overlay (the stress harness asserts exactly that).
SSSPResult deltaSteppingSSSP(const ShardedDeltaView &G, VertexId Source,
                             const Schedule &S);
OrderedStats deltaSteppingSSSP(const ShardedDeltaView &G, VertexId Source,
                               const Schedule &S, DistanceState &State,
                               const CancelToken *Cancel = nullptr);

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_SSSP_H
