#ifndef GRIMP_STREAM_LIVE_GRAPH_H_
#define GRIMP_STREAM_LIVE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "embedding/ngram_init.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "table/table.h"
#include "tensor/tensor.h"

namespace grimp {

// Knobs for LiveGraph::Create. `graph` selects the store (in-memory or
// sharded); `dim` and `seed` must match the engine that will read the
// state (GrimpOptions::dim / ::seed), because the feature seed comes from
// DrawSeedStreams(seed) exactly as in Fit — that is what makes the live
// feature matrix bit-identical to the one a batch run would build.
struct LiveGraphOptions {
  GraphConfig graph;
  int dim = 64;
  uint64_t seed = 0;
};

// Incrementally maintained GRIMP state for streaming ingestion: a live
// table, its quasi-bipartite graph in the segmented node layout (see
// GraphSegment in graph/builder.h), a GraphStore over that graph, and the
// matching n-gram node-feature matrix.
//
// Mutations accumulate as a pending epoch (AppendRow / FillCell record
// (row, col, code) triples; node ids are NOT assigned yet) until Flush()
// seals the epoch: it appends the epoch's node range (the epoch's RID
// nodes in row order, then each column's new dictionary codes ascending —
// dead codes included, as the segmented layout requires), translates the
// pending triples into one sorted both-direction delta run per edge type,
// merges the delta into the store (GraphStore::Append — no full rebuild),
// and refreshes exactly the feature rows that changed.
//
// Invariant (the contract the tests pin down): after any sequence of
// mutations and flushes, (graph, store contents, features) are
// bit-identical to a from-scratch GraphBuilder().Build(table(), segments(),
// {}) + NgramFeatureInit over the same table — the maintained state is a
// pure function of the data, never of the maintenance history.
//
// Because the graph delta is append-only, a streaming cell update may only
// FILL a missing cell (a missing cell has no edges; filling adds some).
// Overwriting a present cell would require removing its old edges and
// returns FailedPrecondition.
//
// Not thread-safe; the StreamingEngine serializes all access.
class LiveGraph {
 public:
  // Builds the initial state from a seed table (>= 1 row, >= 1 column).
  // The seed snapshot becomes segment 0. options.graph.neighbor_cap must
  // be 0 (the cap's random subsample is incompatible with incremental
  // maintenance; segmented builds reject it too).
  static Result<std::unique_ptr<LiveGraph>> Create(
      Table seed, const LiveGraphOptions& options);

  LiveGraph(const LiveGraph&) = delete;
  LiveGraph& operator=(const LiveGraph&) = delete;

  // Appends one row (string cells, empty == missing; numeric columns
  // parse). All-or-nothing; the new row's edges and nodes materialize at
  // the next Flush().
  Status AppendRow(const std::vector<std::string>& cells);

  // Fills the missing cell (row, col) with `value` (non-empty).
  // FailedPrecondition if the cell is present; OutOfRange / InvalidArgument
  // as per Table::UpdateCell.
  Status FillCell(int64_t row, int col, const std::string& value);

  // Seals the pending epoch (no-op when nothing is pending): assigns the
  // epoch's node ids, appends the delta to the store, pushes the epoch's
  // GraphSegment and refreshes changed feature rows. On success dirty() is
  // false and the read surface below reflects every mutation.
  Status Flush();

  // True when mutations are pending (the read surface is stale until the
  // next Flush).
  bool dirty() const { return pending_rows_ > 0 || !pending_.empty(); }

  // Read surface (valid while !dirty()). Borrowed pointers into the live
  // state, wired into a StreamContext by Context().
  const Table& table() const { return table_; }
  const TableGraph& tg() const { return tg_; }
  const GraphStore* store() const { return store_.get(); }
  const Tensor& node_features() const { return node_features_; }
  const std::vector<GraphSegment>& segments() const { return segments_; }
  const LiveGraphOptions& options() const { return options_; }

  // Assembles a StreamContext over the live state for
  // GrimpEngine::TransformMany / Resume. Must not be called while dirty().
  StreamContext Context(int64_t row_begin, std::vector<int> fanouts,
                        uint64_t nonce) const;

 private:
  LiveGraph() = default;

  // One pending edge: row `row` has (col, code) present. Translated to a
  // (RID node, cell node) pair at Flush time, once node ids exist.
  struct PendingCell {
    int64_t row;
    int col;
    int32_t code;
  };

  // Rebuilds the feature rows invalidated by the epoch: embeds the new
  // cell nodes, recomputes appended rows' RID vectors and the RID vectors
  // of pre-epoch rows whose composition changed (dirty_rows_).
  void RefreshFeatures(int64_t old_num_nodes, const GraphSegment& prev,
                       const GraphSegment& sealed);

  LiveGraphOptions options_;
  uint64_t feature_seed_ = 0;

  Table table_;
  TableGraph tg_;  // adjacency empty in sharded mode (lives in the store)
  std::vector<GraphSegment> segments_;
  std::unique_ptr<GraphStore> store_;
  Tensor node_features_;
  NgramFeatureInit embedder_;

  // Pending epoch.
  int64_t pending_rows_ = 0;
  std::vector<PendingCell> pending_;
  std::vector<int64_t> dirty_rows_;  // pre-epoch rows with filled cells
};

}  // namespace grimp

#endif  // GRIMP_STREAM_LIVE_GRAPH_H_
