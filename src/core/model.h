#ifndef GRIMP_CORE_MODEL_H_
#define GRIMP_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/corpus.h"
#include "core/options.h"
#include "core/tasks.h"
#include "core/trainer.h"
#include "embedding/feature_init.h"
#include "gnn/hetero_sage.h"
#include "graph/builder.h"
#include "table/dictionary.h"
#include "table/normalizer.h"
#include "tensor/nn.h"

namespace grimp {

// Alg. 1's random streams, drawn from Rng(seed) in one fixed order: the
// corpus fork, the feature seed, then the model fork. Every path that
// featurizes a table (Fit, TransformMany, AttentionSummary, LiveGraph)
// takes `features` from here, so a value string gets the vector it had in
// Fit.
struct SeedStreams {
  Rng corpus;
  uint64_t features = 0;
  Rng model;
};
SeedStreams DrawSeedStreams(uint64_t seed);

// Fit's graph construction options, reused by inference so a request
// graph is built the way the training graph was.
GraphBuildOptions GraphBuildOptionsFor(const GrimpOptions& options);

// The one GRIMP model (paper §3.3–3.7, Alg. 1) behind both GrimpImputer
// and GrimpEngine: a heterogeneous GraphSAGE stack, the shared merging MLP
// and one task head per attribute — or, with multi_task=false, a single
// linear classifier over the union of every column's domain (the
// GNN-MC / EmbDI-MC ablation) — plus the source context decoding needs
// (schema, domains, normalizer). It owns every decision the two entry
// points share: how the heads are built, how a sample becomes a gather
// row, how a score becomes a cell, and which parameters train.
class GrimpModel {
 public:
  // One cell to impute: `row` of column `col` in the caller's table number
  // `table`, counted from the start of the scanned row range.
  struct Cell {
    uint32_t table = 0;
    int col = 0;
    int64_t row = 0;
  };
  // A decoded cell. Classification: `code` indexes the source domain of
  // cell.col (for a numerical column under the single classifier, `value`
  // holds the code's parsed number). Regression: code == -1 and `value` is
  // the denormalized prediction.
  struct Decision {
    Cell cell;
    int32_t code = -1;
    double value = 0.0;
  };
  // What Fit leaves besides the trained weights: the fit-time graph
  // (validation target edges removed; adjacency dropped in sharded mode)
  // and the pre-trained features over it.
  struct FitGraph {
    TableGraph tg;
    PretrainedFeatures features;
  };

  // Paper Alg. 1 on `source`: normalizer, training corpus (a per-column
  // reservoir in sharded mode), graph without validation target edges,
  // pre-trained features, Build, then training through the Trainer over a
  // store made from options.graph. Draws corpus fork -> feature Next ->
  // model fork from Rng(options.seed). `options` must be valid; *summary
  // is reset first and holds the run's summary on success.
  Result<FitGraph> Fit(const GrimpOptions& options, const Table& source,
                       TrainSummary* summary);

  // Builds the architecture for `schema` with source domains `dicts`,
  // drawing gnn -> shared -> heads in column order from *rng. Categorical
  // heads start at the log class priors of their domain. `column_features`
  // seeds the attention Q matrices.
  void Build(const GrimpOptions& options, Schema schema,
             std::vector<Dictionary> dicts, Normalizer normalizer,
             const Tensor& column_features, Rng* rng);

  // The one sample-to-TrainTask routine: one gather row per sample of
  // `table` (node ids through `tg`, target cell masked) with its class
  // label (offset into the single classifier's output when multi_task is
  // off) or normalized target. With max_train_per_task > 0 each task keeps
  // only its first that many training samples.
  std::vector<TrainTask> MakeTrainTasks(
      const Table& table, const TableGraph& tg,
      std::span<const TrainingSample> train,
      std::span<const TrainingSample> validation,
      int64_t max_train_per_task);

  // Appends every missing cell that task `t` imputes in rows [begin, end)
  // of `table`, in row-major order, to *cells (tagged `table_id`) and its
  // gather row — node ids through `tg`, shifted by `node_offset` — to *idx.
  void AppendImputeCells(size_t t, const Table& table, const TableGraph& tg,
                         int64_t begin, int64_t end, int64_t node_offset,
                         uint32_t table_id, std::vector<int32_t>* idx,
                         std::vector<Cell>* cells) const;

  // Features -> GNN (when enabled) -> shared layer, over a whole graph or
  // over a sampled block sequence.
  Tape::VarId Encode(Tape* tape, Tape::VarId feats, const HeteroGraph& graph,
                     GnnScratch* scratch = nullptr) const;
  Tape::VarId EncodeBlocks(Tape* tape, Tape::VarId feats,
                           const SampledSubgraph& sub,
                           GnnScratch* scratch = nullptr) const;
  // Task `t`'s head over the rows of `h_shared` gathered by *idx (num_cols
  // node ids per vector; borrowed until the tape resets).
  Tape::VarId HeadForward(Tape* tape, Tape::VarId h_shared, size_t t,
                          const std::vector<int32_t>* idx) const;

  // The one decode: runs task `t` over *idx and appends one decision per
  // cell — the argmax over the column's live source domain (paper: the
  // candidates come from Dom(A_i) only), or the denormalized regression
  // output. A class cell with no live candidate gets no decision.
  void Decide(Tape* tape, Tape::VarId h_shared, size_t t,
              const std::vector<int32_t>* idx, std::span<const Cell> cells,
              std::vector<Decision>* out) const;
  // Writes each decision into tables[cell.table], by value.
  void Apply(std::span<const Decision> decisions,
             std::span<Table* const> tables) const;

  // Trainable parameters in gnn -> shared -> heads order (the training and
  // model-file order).
  void CollectParams(std::vector<Parameter*>* out);

  // Sampling fanouts per GNN layer: `configured`, or the default fanout
  // for every layer when it is empty.
  std::vector<int> Fanouts(const std::vector<int>& configured) const;

  const Schema& schema() const { return schema_; }
  const std::vector<Dictionary>& dicts() const { return dicts_; }
  const Normalizer& normalizer() const { return normalizer_; }
  int num_cols() const { return schema_.num_fields(); }
  size_t num_tasks() const { return tasks_.size(); }
  // Target column of task `t` (-1 for the single classifier).
  int task_col(size_t t) const { return tasks_[t].col; }
  const TaskHead& head(size_t t) const { return *tasks_[t].head; }

 private:
  struct Task {
    int col = -1;
    bool categorical = true;
    std::unique_ptr<TaskHead> head;
  };

  bool use_gnn_ = true;
  bool multi_task_ = true;
  int dim_ = 0;
  Schema schema_;
  std::vector<Dictionary> dicts_;
  Normalizer normalizer_;
  // First output class of each column in its task's head: 0 with one head
  // per attribute, the running domain offset under the single classifier.
  std::vector<int32_t> class_offset_;
  HeteroGnn gnn_;
  Mlp shared_;
  std::vector<Task> tasks_;
};

}  // namespace grimp

#endif  // GRIMP_CORE_MODEL_H_
