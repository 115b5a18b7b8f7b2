#include "stream/live_graph.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "graph/delta.h"

namespace grimp {

Result<std::unique_ptr<LiveGraph>> LiveGraph::Create(
    Table seed, const LiveGraphOptions& options) {
  GRIMP_RETURN_IF_ERROR(options.graph.Validate());
  if (options.graph.neighbor_cap != 0) {
    return Status::InvalidArgument(
        "LiveGraph requires graph.neighbor_cap == 0: the cap's random "
        "subsample is order-sensitive and cannot be maintained "
        "incrementally");
  }
  if (options.dim <= 0) {
    return Status::InvalidArgument("LiveGraph dim must be positive");
  }
  if (seed.num_rows() == 0 || seed.num_cols() == 0) {
    return Status::InvalidArgument("LiveGraph seed table is empty");
  }
  GRIMP_TRACE_SPAN("stream.live_graph.create");

  auto live = std::unique_ptr<LiveGraph>(new LiveGraph());
  live->options_ = options;
  live->table_ = std::move(seed);

  live->feature_seed_ = DrawSeedStreams(options.seed).features;

  GraphSegment first;
  first.row_end = live->table_.num_rows();
  first.code_end.resize(static_cast<size_t>(live->table_.num_cols()));
  for (int c = 0; c < live->table_.num_cols(); ++c) {
    first.code_end[static_cast<size_t>(c)] =
        live->table_.column(c).dict().size();
  }
  live->segments_.push_back(std::move(first));

  GRIMP_ASSIGN_OR_RETURN(
      live->tg_, GraphBuilder().Build(live->table_, live->segments_, {}));
  GRIMP_ASSIGN_OR_RETURN(
      PretrainedFeatures features,
      live->embedder_.Init(live->table_, live->tg_, options.dim,
                           live->feature_seed_));
  live->node_features_ = std::move(features.node_features);

  GRIMP_ASSIGN_OR_RETURN(live->store_,
                         MakeGraphStore(&live->tg_.graph, options.graph));
  if (options.graph.shard_mode == ShardMode::kSharded) {
    live->tg_.graph.SetAdjacency({});  // the store owns the topology now
  }
  return live;
}

Status LiveGraph::AppendRow(const std::vector<std::string>& cells) {
  GRIMP_RETURN_IF_ERROR(table_.AppendRow(cells));
  const int64_t row = table_.num_rows() - 1;
  ++pending_rows_;
  for (int c = 0; c < table_.num_cols(); ++c) {
    const int32_t code = table_.column(c).CodeAt(row);
    if (code >= 0) pending_.push_back({row, c, code});
  }
  return Status::OK();
}

Status LiveGraph::FillCell(int64_t row, int col, const std::string& value) {
  if (row < 0 || row >= table_.num_rows() || col < 0 ||
      col >= table_.num_cols()) {
    return Status::OutOfRange("cell coordinate outside the live table");
  }
  if (value.empty()) {
    return Status::InvalidArgument(
        "streaming cell updates fill values; use the missing sentinel "
        "only in appended rows");
  }
  if (!table_.IsMissing(row, col)) {
    return Status::FailedPrecondition(
        "streaming cell updates may only fill missing cells: the graph "
        "delta is append-only, and overwriting a present cell would "
        "require removing its edges");
  }
  GRIMP_RETURN_IF_ERROR(table_.UpdateCell(row, col, value));
  const int32_t code = table_.column(col).CodeAt(row);
  GRIMP_CHECK_GE(code, 0);
  pending_.push_back({row, col, code});
  // A pre-epoch row's feature vector (mean of its present cells) changes
  // when a cell fills in; epoch rows are recomputed wholesale at Flush.
  if (row < segments_.back().row_end) dirty_rows_.push_back(row);
  return Status::OK();
}

Status LiveGraph::Flush() {
  if (!dirty()) return Status::OK();
  GRIMP_TRACE_SPAN("stream.live_graph.flush");
  const int num_cols = table_.num_cols();
  const GraphSegment prev = segments_.back();
  const int64_t old_num_nodes = tg_.graph.num_nodes();

  GraphSegment sealed;
  sealed.row_end = table_.num_rows();
  sealed.code_end.resize(static_cast<size_t>(num_cols));
  for (int c = 0; c < num_cols; ++c) {
    sealed.code_end[static_cast<size_t>(c)] = table_.column(c).dict().size();
  }

  // Assign the epoch's node ids in the segmented layout: the epoch's RID
  // nodes in row order, then each column's new codes ascending (dead codes
  // included — they become isolated nodes, exactly like the rebuild).
  for (int64_t r = prev.row_end; r < sealed.row_end; ++r) {
    tg_.rid_nodes.push_back(
        tg_.graph.AddNode({NodeKind::kRid, r, -1}));
  }
  for (int c = 0; c < num_cols; ++c) {
    auto& per_col = tg_.cell_nodes[static_cast<size_t>(c)];
    per_col.resize(static_cast<size_t>(sealed.code_end[static_cast<size_t>(c)]),
                   -1);
    for (int32_t code = prev.code_end[static_cast<size_t>(c)];
         code < sealed.code_end[static_cast<size_t>(c)]; ++code) {
      per_col[static_cast<size_t>(code)] =
          tg_.graph.AddNode({NodeKind::kCell, code, c});
    }
  }

  // Translate the pending triples into per-type sorted delta runs, both
  // directions per edge.
  GraphDelta delta;
  delta.new_num_nodes = tg_.graph.num_nodes();
  delta.edges.resize(static_cast<size_t>(num_cols));
  for (const PendingCell& p : pending_) {
    const int64_t rid = tg_.rid_nodes[static_cast<size_t>(p.row)];
    const int64_t cell = tg_.CellNode(p.col, p.code);
    GRIMP_CHECK_GE(cell, 0);
    auto& run = delta.edges[static_cast<size_t>(p.col)];
    run.emplace_back(static_cast<int32_t>(rid), static_cast<int32_t>(cell));
    run.emplace_back(static_cast<int32_t>(cell), static_cast<int32_t>(rid));
  }
  for (auto& run : delta.edges) std::sort(run.begin(), run.end());
  GRIMP_RETURN_IF_ERROR(store_->Append(delta));

  RefreshFeatures(old_num_nodes, prev, sealed);

  segments_.push_back(std::move(sealed));
  const int64_t new_edges = delta.NumEdges();
  pending_.clear();
  pending_rows_ = 0;
  dirty_rows_.clear();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetCounter("stream.flushes").Increment();
  metrics.GetCounter("stream.flush.edges").Increment(new_edges);
  metrics.GetGauge("stream.live_rows")
      .Set(static_cast<double>(table_.num_rows()));
  metrics.GetGauge("stream.live_nodes")
      .Set(static_cast<double>(tg_.graph.num_nodes()));
  return Status::OK();
}

void LiveGraph::RefreshFeatures(int64_t old_num_nodes,
                                const GraphSegment& prev,
                                const GraphSegment& sealed) {
  const int dim = options_.dim;
  const int num_cols = table_.num_cols();
  const int64_t num_nodes = tg_.graph.num_nodes();

  // Uninit is safe: old rows are copied below, new cell rows are fully
  // written by EmbedInto and new RID rows by AverageRidRow.
  Tensor features = Tensor::Uninit(num_nodes, dim);
  std::copy(node_features_.data(),
            node_features_.data() + old_num_nodes * dim, features.data());

  // New cell nodes, then the RID vectors of appended and filled rows —
  // through the same routines as NgramFeatureInit::Init, so every row is
  // bit-identical to a rebuild's.
  std::string padded;
  for (int c = 0; c < num_cols; ++c) {
    const Dictionary& dict = table_.column(c).dict();
    for (int32_t code = prev.code_end[static_cast<size_t>(c)];
         code < sealed.code_end[static_cast<size_t>(c)]; ++code) {
      const int64_t node = tg_.CellNode(c, code);
      GRIMP_CHECK_GE(node, 0);
      embedder_.EmbedInto(dict.ValueOf(code), dim, feature_seed_,
                          &features.at(node, 0), &padded);
    }
  }
  for (int64_t r = prev.row_end; r < sealed.row_end; ++r) {
    NgramFeatureInit::AverageRidRow(table_, tg_, r, &features);
  }
  std::sort(dirty_rows_.begin(), dirty_rows_.end());
  dirty_rows_.erase(std::unique(dirty_rows_.begin(), dirty_rows_.end()),
                    dirty_rows_.end());
  for (int64_t r : dirty_rows_) {
    NgramFeatureInit::AverageRidRow(table_, tg_, r, &features);
  }

  node_features_ = std::move(features);
}

StreamContext LiveGraph::Context(int64_t row_begin, std::vector<int> fanouts,
                                 uint64_t nonce) const {
  GRIMP_CHECK(!dirty());
  StreamContext ctx;
  ctx.table = &table_;
  ctx.tg = &tg_;
  ctx.store = store_.get();
  ctx.node_features = &node_features_;
  ctx.row_begin = row_begin;
  ctx.fanouts = std::move(fanouts);
  ctx.nonce = nonce;
  return ctx;
}

}  // namespace grimp
