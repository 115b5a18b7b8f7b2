#ifndef GRIMP_GRAPH_DELTA_H_
#define GRIMP_GRAPH_DELTA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/hetero_graph.h"

namespace grimp {

// An incremental adjacency update for streaming ingestion: the node table
// has grown append-only to `new_num_nodes` (ids of existing nodes never
// change), and `edges[t]` lists edge type t's new (src, dst) pairs in the
// final id space — both directions of every undirected edge, sorted by
// (src, dst), no duplicates against the base or within the delta.
//
// Because CsrAdjacency::FromEdges sorts every neighbor list ascending, a
// CSR is a pure function of its edge *set* — so merging a delta's sorted
// per-node runs into the base CSR (MergeAdjacencyDelta below) yields the
// bit-identical arrays a from-scratch FromEdges over base ∪ delta would
// produce. That is the invariant the delta-vs-rebuild equality suite pins
// down.
struct GraphDelta {
  // Node-table size after the delta (>= the base CSR's num_nodes).
  int64_t new_num_nodes = 0;
  // Per edge type; size must equal the store's num_edge_types().
  std::vector<std::vector<std::pair<int32_t, int32_t>>> edges;

  int64_t NumEdges() const {
    int64_t n = 0;
    for (const auto& per_type : edges) {
      n += static_cast<int64_t>(per_type.size());
    }
    return n;
  }
};

// The one sorted-run CSR merge behind MergeAdjacencyDelta and the shard
// builders (GraphShard::Patched / ::FromSortedEdges). Writes the CSR rows
// of nodes [begin, end) into *offsets (end - begin + 1 entries, the first
// 0) and *indices: node v's neighbor list is the ascending merge of its
// base run and its edges in `sorted_edges`. The base covers nodes
// [begin, begin + base_nodes) with base_offsets[v - begin] indexing
// base_indices after subtracting base_offsets[0] (a shard slice's global
// offsets); later nodes get their extra edges only, and base_nodes == 0 is
// the empty base. Preconditions: base runs ascending, `sorted_edges`
// sorted by (src, dst) with every src in [begin, end), no duplicate edges.
// Nodes before the next extra edge's source keep their base runs verbatim
// through one bulk copy (deltas touch a small fraction of the nodes).
void MergeSortedRuns(
    int64_t begin, int64_t end, const int32_t* base_offsets,
    const int32_t* base_indices, int64_t base_nodes,
    const std::vector<std::pair<int32_t, int32_t>>& sorted_edges,
    std::vector<int32_t>* offsets, std::vector<int32_t>* indices);

// Merges one edge type's sorted delta run into its base CSR: node v's new
// neighbor list is the ascending merge of its base list and its delta
// edges; nodes in [base.num_nodes(), new_num_nodes) get their delta edges
// only (or an empty list). Preconditions: base neighbor lists ascending
// (FromEdges/MergeAdjacencyDelta output), `sorted_edges` sorted by
// (src, dst) with src < new_num_nodes, no duplicate edges.
CsrAdjacency MergeAdjacencyDelta(
    const CsrAdjacency& base, int64_t new_num_nodes,
    const std::vector<std::pair<int32_t, int32_t>>& sorted_edges);

}  // namespace grimp

#endif  // GRIMP_GRAPH_DELTA_H_
