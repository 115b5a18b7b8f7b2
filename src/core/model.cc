#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "common/trace.h"

namespace grimp {

namespace {

// Per-layer neighbor fanout when TrainConfig::fanouts is empty.
constexpr int kDefaultFanout = 10;

// Sharded training must not enumerate every present cell up front (the
// corpus alone would rival the graph in size), so when the caller has not
// capped max_samples_per_task Fit imposes this per-column reservoir bound
// itself.
constexpr int64_t kDefaultShardedSamplesPerCol = 20000;

// Gather row of one tuple's vector: the cell nodes of `row` with
// `masked_col` (and missing cells) mapped to -1, node ids shifted by
// `node_offset` (a request's base in a batched union graph; 0 solo).
void AppendGatherRow(const Table& table, const TableGraph& tg, int64_t row,
                     int masked_col, int64_t node_offset,
                     std::vector<int32_t>* idx) {
  for (int c = 0; c < table.num_cols(); ++c) {
    const int32_t code = c == masked_col ? -1 : table.column(c).CodeAt(row);
    const int64_t node = code < 0 ? -1 : tg.CellNode(c, code);
    idx->push_back(node < 0 ? -1
                            : static_cast<int32_t>(node + node_offset));
  }
}

// Log class priors for a categorical column's classifier head: rare values
// start correctly downweighted, which matters most when noise fragments
// the domain into many singletons (§4.2 noise experiment).
std::vector<float> LogPriorBias(const Dictionary& dict) {
  std::vector<float> bias(static_cast<size_t>(std::max(1, dict.size())),
                          0.0f);
  double total = 0.0;
  for (int32_t code = 0; code < dict.size(); ++code) {
    total += static_cast<double>(dict.CountOf(code));
  }
  if (total <= 0.0) return bias;
  for (int32_t code = 0; code < dict.size(); ++code) {
    const double p =
        (static_cast<double>(dict.CountOf(code)) + 0.5) / (total + 0.5);
    bias[static_cast<size_t>(code)] = static_cast<float>(std::log(p));
  }
  return bias;
}

}  // namespace

SeedStreams DrawSeedStreams(uint64_t seed) {
  Rng rng(seed);
  SeedStreams streams;
  streams.corpus = rng.Fork();
  streams.features = rng.Next();
  streams.model = rng.Fork();
  return streams;
}

GraphBuildOptions GraphBuildOptionsFor(const GrimpOptions& options) {
  GraphBuildOptions graph_options;
  graph_options.max_neighbors_per_node = options.graph.neighbor_cap;
  graph_options.seed = options.seed;
  return graph_options;
}

Result<GrimpModel::FitGraph> GrimpModel::Fit(const GrimpOptions& options,
                                             const Table& source,
                                             TrainSummary* summary) {
  *summary = TrainSummary{};
  SeedStreams seeds = DrawSeedStreams(options.seed);
  Normalizer normalizer = Normalizer::Fit(source);
  const bool sharded = options.graph.shard_mode == ShardMode::kSharded;
  const TrainingCorpus corpus =
      sharded ? BuildCappedTrainingCorpus(
                    source, options.validation_fraction,
                    options.max_samples_per_task > 0
                        ? options.max_samples_per_task
                        : kDefaultShardedSamplesPerCol,
                    &seeds.corpus)
              : BuildTrainingCorpus(source, options.validation_fraction,
                                    &seeds.corpus);
  FitGraph fit;
  GRIMP_ASSIGN_OR_RETURN(fit.tg,
                         GraphBuilder(GraphBuildOptionsFor(options))
                             .Build(source, corpus.ValidationCells()));
  GRIMP_ASSIGN_OR_RETURN(
      fit.features, MakeFeatureInitializer(options.features)
                        ->Init(source, fit.tg, options.dim, seeds.features));

  // The store is the trainer's only view of the topology. In-memory mode
  // borrows fit.tg.graph (the degenerate single-shard case); sharded mode
  // spills the CSRs to disk at Create, after which the in-core copy is
  // dropped — from here on the full adjacency never lives in memory again.
  GRIMP_ASSIGN_OR_RETURN(std::unique_ptr<GraphStore> store,
                         MakeGraphStore(&fit.tg.graph, options.graph));
  if (sharded) fit.tg.graph.SetAdjacency({});

  std::vector<Dictionary> dicts;
  for (int c = 0; c < source.num_cols(); ++c) {
    dicts.push_back(source.column(c).dict());
  }
  Build(options, source.schema(), std::move(dicts), std::move(normalizer),
        fit.features.column_features, &seeds.model);

  TraceSpan task_build_span("grimp.task_build");
  std::vector<TrainTask> tasks =
      MakeTrainTasks(source, fit.tg, corpus.train, corpus.validation,
                     options.max_samples_per_task);
  task_build_span.Stop();

  Trainer trainer(options, store.get(), &fit.features.node_features, this,
                  std::move(tasks));
  GRIMP_ASSIGN_OR_RETURN(*summary, trainer.Run(options.callbacks));
  return fit;
}

void GrimpModel::Build(const GrimpOptions& options, Schema schema,
                       std::vector<Dictionary> dicts, Normalizer normalizer,
                       const Tensor& column_features, Rng* rng) {
  use_gnn_ = options.use_gnn;
  multi_task_ = options.multi_task;
  dim_ = options.dim;
  schema_ = std::move(schema);
  dicts_ = std::move(dicts);
  normalizer_ = std::move(normalizer);
  const int num_cols = schema_.num_fields();
  const int dim = options.dim;
  if (use_gnn_) {
    gnn_ = HeteroGnn(num_cols, dim, dim, dim, options.gnn_layers, rng);
  }
  shared_ = Mlp("shared", {dim, options.shared_hidden, dim}, rng);

  tasks_.clear();
  class_offset_.assign(static_cast<size_t>(num_cols), 0);
  if (!multi_task_) {
    // One classifier over the union of all domains; numerical attributes
    // are classified over their distinct (rounded) values.
    int32_t total = 0;
    for (int c = 0; c < num_cols; ++c) {
      class_offset_[static_cast<size_t>(c)] = total;
      total += dicts_[static_cast<size_t>(c)].size();
    }
    tasks_.push_back({-1, true,
                      std::make_unique<LinearTaskHead>(
                          "task.mc", num_cols, dim, options.task_hidden,
                          std::max(1, total), rng)});
    return;
  }
  for (int c = 0; c < num_cols; ++c) {
    const Dictionary& dict = dicts_[static_cast<size_t>(c)];
    Task task;
    task.col = c;
    task.categorical = schema_.field(c).type == AttrType::kCategorical;
    const int out_dim = task.categorical ? std::max(1, dict.size()) : 1;
    const std::string task_name = "task." + schema_.field(c).name;
    if (options.task_kind == TaskKind::kAttention) {
      task.head = std::make_unique<AttentionTaskHead>(
          task_name, column_features,
          BuildKDiagonal(options.k_strategy, c, num_cols, options.fds), dim,
          out_dim, rng, options.task_hidden);
    } else {
      task.head = std::make_unique<LinearTaskHead>(
          task_name, num_cols, dim, options.task_hidden, out_dim, rng);
    }
    if (task.categorical) task.head->SetOutputBias(LogPriorBias(dict));
    tasks_.push_back(std::move(task));
  }
}

std::vector<TrainTask> GrimpModel::MakeTrainTasks(
    const Table& table, const TableGraph& tg,
    std::span<const TrainingSample> train,
    std::span<const TrainingSample> validation, int64_t max_train_per_task) {
  std::vector<TrainTask> out(tasks_.size());
  for (size_t t = 0; t < tasks_.size(); ++t) {
    out[t].categorical = tasks_[t].categorical;
  }
  const auto add = [&](const TrainingSample& s, bool is_val) {
    TrainTask& task = out[multi_task_ ? static_cast<size_t>(s.target_col)
                                      : 0];
    // Training-data reduction (§7): corpus order is random, so the cap
    // keeps a uniform subsample per task.
    if (!is_val && max_train_per_task > 0 &&
        task.NumTrain() >= max_train_per_task) {
      return;
    }
    AppendGatherRow(table, tg, s.row, s.target_col, /*node_offset=*/0,
                    is_val ? &task.val_idx : &task.train_idx);
    const Column& col = table.column(s.target_col);
    const int32_t code = col.CodeAt(s.row);
    GRIMP_CHECK_GE(code, 0);
    if (task.categorical) {
      (is_val ? task.val_labels : task.train_labels)
          .push_back(code + class_offset_[static_cast<size_t>(s.target_col)]);
    } else {
      (is_val ? task.val_targets : task.train_targets)
          .push_back(static_cast<float>(
              normalizer_.Normalize(s.target_col, col.NumAt(s.row))));
    }
  };
  for (const TrainingSample& s : train) add(s, false);
  for (const TrainingSample& s : validation) add(s, true);
  return out;
}

void GrimpModel::AppendImputeCells(size_t t, const Table& table,
                                   const TableGraph& tg, int64_t begin,
                                   int64_t end, int64_t node_offset,
                                   uint32_t table_id,
                                   std::vector<int32_t>* idx,
                                   std::vector<Cell>* cells) const {
  const int col = tasks_[t].col;
  const int first = multi_task_ ? col : 0;
  const int last = multi_task_ ? col + 1 : table.num_cols();
  for (int64_t r = begin; r < end; ++r) {
    for (int c = first; c < last; ++c) {
      if (!table.IsMissing(r, c)) continue;
      AppendGatherRow(table, tg, r, c, node_offset, idx);
      cells->push_back(Cell{table_id, c, r - begin});
    }
  }
}

Tape::VarId GrimpModel::Encode(Tape* tape, Tape::VarId feats,
                               const HeteroGraph& graph,
                               GnnScratch* scratch) const {
  return shared_.Forward(
      tape, use_gnn_ ? gnn_.Forward(tape, feats, graph, scratch) : feats);
}

Tape::VarId GrimpModel::EncodeBlocks(Tape* tape, Tape::VarId feats,
                                     const SampledSubgraph& sub,
                                     GnnScratch* scratch) const {
  return shared_.Forward(tape, gnn_.ForwardBlocks(tape, feats, sub, scratch));
}

Tape::VarId GrimpModel::HeadForward(Tape* tape, Tape::VarId h_shared,
                                    size_t t,
                                    const std::vector<int32_t>* idx) const {
  const int64_t cols = num_cols();
  const int64_t n = static_cast<int64_t>(idx->size()) / cols;
  Tape::VarId flat = tape->GatherRows(h_shared, idx);
  return tasks_[t].head->Forward(tape, tape->Reshape(flat, n, cols * dim_));
}

void GrimpModel::Decide(Tape* tape, Tape::VarId h_shared, size_t t,
                        const std::vector<int32_t>* idx,
                        std::span<const Cell> cells,
                        std::vector<Decision>* out) const {
  if (cells.empty()) return;
  const Task& task = tasks_[t];
  const Tensor& scores = tape->value(HeadForward(tape, h_shared, t, idx));
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const auto row = static_cast<int64_t>(i);
    const auto col = static_cast<size_t>(cell.col);
    if (!task.categorical) {
      out->push_back({cell, -1,
                      normalizer_.Denormalize(cell.col, scores.at(row, 0))});
      continue;
    }
    const Dictionary& dict = dicts_[col];
    Decision d{cell, dict.ArgmaxLive(scores.data() + row * scores.cols() +
                                     class_offset_[col]),
               0.0};
    if (d.code < 0) continue;
    if (schema_.field(cell.col).type == AttrType::kNumerical) {
      GRIMP_CHECK(ParseDouble(dict.ValueOf(d.code), &d.value));
    }
    out->push_back(d);
  }
}

void GrimpModel::Apply(std::span<const Decision> decisions,
                       std::span<Table* const> tables) const {
  for (const Decision& d : decisions) {
    Column& dst = tables[d.cell.table]->mutable_column(d.cell.col);
    if (dst.is_categorical()) {
      dst.SetCategorical(
          d.cell.row, dicts_[static_cast<size_t>(d.cell.col)].ValueOf(d.code));
    } else {
      dst.SetNumerical(d.cell.row, d.value);
    }
  }
}

void GrimpModel::CollectParams(std::vector<Parameter*>* out) {
  if (use_gnn_) gnn_.CollectParameters(out);
  shared_.CollectParameters(out);
  for (Task& task : tasks_) task.head->CollectParameters(out);
}

std::vector<int> GrimpModel::Fanouts(const std::vector<int>& configured) const {
  if (!configured.empty()) return configured;
  return std::vector<int>(static_cast<size_t>(gnn_.num_layers()),
                          kDefaultFanout);
}

}  // namespace grimp
