#include "core/grimp.h"

#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/model.h"

namespace grimp {

GrimpImputer::GrimpImputer(GrimpOptions options)
    : options_(std::move(options)) {
  if (options_.num_threads > 0) {
    ThreadPool::SetGlobalThreads(options_.num_threads);
  }
}

std::string GrimpImputer::name() const {
  std::string n = "GRIMP";
  switch (options_.features) {
    case FeatureInitKind::kNgram:
      n += "-FT";
      break;
    case FeatureInitKind::kEmbdi:
      n += "-E";
      break;
    case FeatureInitKind::kRandom:
      n += "-R";
      break;
  }
  if (!options_.multi_task) {
    return options_.use_gnn ? "GNN-MC" : "EmbDI-MC";
  }
  if (options_.task_kind == TaskKind::kLinear) n += "-Lin";
  if (options_.k_strategy == KStrategy::kWeakDiagonalFd) n += "-A(FD)";
  return n;
}

Result<Table> GrimpImputer::Impute(const Table& dirty) {
  GRIMP_RETURN_IF_ERROR(options_.Validate());
  if (dirty.num_rows() == 0 || dirty.num_cols() == 0) {
    return Status::InvalidArgument("empty table");
  }
  if (options_.graph.shard_mode == ShardMode::kSharded) {
    return Status::FailedPrecondition(
        "GrimpImputer does not support sharded graph storage: its decode "
        "step runs one whole-graph forward (use GrimpEngine for "
        "out-of-core training)");
  }
  RecordThreadPoolMetrics();
  TraceSpan impute_span("grimp.impute");

  // Preprocessing and training (paper Alg. 1): the same GrimpModel::Fit
  // that GrimpEngine::Fit runs.
  GrimpModel model;
  GRIMP_ASSIGN_OR_RETURN(GrimpModel::FitGraph fit,
                         model.Fit(options_, dirty, &summary_));

  // Imputation (paper §3.7): one forward with the best weights over the
  // fit-time graph and features, then every missing cell decoded by its
  // task.
  GRIMP_TRACE_SPAN("grimp.decode");
  // The tape borrows each task's gather rows, so they outlive it.
  std::vector<std::vector<int32_t>> idx(model.num_tasks());
  std::vector<GrimpModel::Cell> cells;
  std::vector<GrimpModel::Decision> decisions;
  Tape tape;
  const Tape::VarId h_shared = model.Encode(
      &tape, tape.Constant(std::move(fit.features.node_features)),
      fit.tg.graph);
  for (size_t t = 0; t < model.num_tasks(); ++t) {
    cells.clear();
    model.AppendImputeCells(t, dirty, fit.tg, 0, dirty.num_rows(), 0, 0,
                            &idx[t], &cells);
    model.Decide(&tape, h_shared, t, &idx[t], cells, &decisions);
  }
  Table imputed = dirty;
  Table* const out = &imputed;
  model.Apply(decisions, std::span<Table* const>(&out, 1));
  return imputed;
}

}  // namespace grimp
