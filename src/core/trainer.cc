#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/model.h"
#include "tensor/arena.h"
#include "tensor/optimizer.h"

namespace grimp {

namespace {

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(Now() - t0).count();
}

// A task's loss on its head output: (focal) cross entropy over class
// labels, or MSE against normalized targets.
Tape::VarId TaskLoss(const GrimpOptions& options, Tape* tape,
                     const TrainTask& task, Tape::VarId out,
                     const std::vector<int32_t>* labels,
                     const std::vector<float>* targets) {
  if (!task.categorical) return tape->MseLoss(out, targets);
  return options.focal_gamma > 0.0f
             ? tape->FocalLoss(out, labels, options.focal_gamma)
             : tape->SoftmaxCrossEntropy(out, labels);
}

}  // namespace

Trainer::Trainer(const GrimpOptions& options, const GraphStore* store,
                 const Tensor* node_features, GrimpModel* model,
                 std::vector<TrainTask> tasks)
    : options_(options),
      store_(store),
      node_features_(node_features),
      model_(model),
      tasks_(std::move(tasks)) {
  GRIMP_CHECK(store_ != nullptr);
  GRIMP_CHECK(node_features_ != nullptr);
  GRIMP_CHECK_EQ(tasks_.size(), model_->num_tasks());
  // Full mode (and full-graph validation) runs whole-graph forwards, which
  // only an in-memory store can serve.
  GRIMP_CHECK(options_.train.mode == TrainMode::kSampled ||
              store_->full_graph() != nullptr);
}

double Trainer::RunFullPass(Adam* opt, double* val_loss_sum, bool* has_val,
                            bool* trained) {
  *trained = false;
  tape_.Reset();  // reuse node slots from the previous epoch
  Tape& tape = tape_;
  Tape::VarId h_shared = model_->Encode(
      &tape, tape.Constant(*node_features_), *store_->full_graph(),
      &gnn_scratch_);

  Tape::VarId total_loss = -1;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const TrainTask& task = tasks_[t];
    // Borrowing overloads throughout: the task's index/label/target vectors
    // are Trainer members, alive well past the tape's backward pass.
    if (opt != nullptr && !task.train_idx.empty()) {
      Tape::VarId out =
          model_->HeadForward(&tape, h_shared, t, &task.train_idx);
      Tape::VarId loss = TaskLoss(options_, &tape, task, out,
                                  &task.train_labels, &task.train_targets);
      total_loss = total_loss < 0 ? loss : tape.Add(total_loss, loss);
    }
    if (!task.val_idx.empty()) {
      Tape::VarId out = model_->HeadForward(&tape, h_shared, t, &task.val_idx);
      Tape::VarId loss = TaskLoss(options_, &tape, task, out,
                                  &task.val_labels, &task.val_targets);
      *val_loss_sum += tape.value(loss).scalar();
      *has_val = true;
    }
  }
  if (total_loss < 0) return 0.0;  // validation only, or nothing to train
  const double train_loss = tape.value(total_loss).scalar();
  tape.Backward(total_loss);
  opt->ClipGradNorm(options_.grad_clip);
  opt->Step();
  opt->ZeroGrad();
  ++summary_.steps_run;
  *trained = true;
  return train_loss;
}

double Trainer::ValidationLoss(bool* has_val) {
  if (store_->full_graph() == nullptr) {
    return RunSampledPass(/*epoch=*/0, /*opt=*/nullptr, has_val);
  }
  double val_loss_sum = 0.0;
  bool trained = false;
  RunFullPass(/*opt=*/nullptr, &val_loss_sum, has_val, &trained);
  return val_loss_sum;
}

void Trainer::EnsurePipeline() {
  if (pipeline_ != nullptr) return;
  pipeline_ = std::make_unique<BatchPipeline>(
      options_.train.pipeline_depth, store_,
      model_->Fanouts(options_.train.fanouts));
}

void Trainer::PrepareBatch(const BatchPlan& plan, bool validation,
                           PreparedBatch* out,
                           NeighborSampler* sampler) const {
  const TrainTask& task = tasks_[static_cast<size_t>(plan.task)];
  const std::vector<int32_t>& task_idx =
      validation ? task.val_idx : task.train_idx;
  const int64_t cols = model_->num_cols();
  const int32_t* idx = task_idx.data() + plan.start * cols;
  const int64_t idx_len = plan.bn * cols;
  out->local_idx.assign(idx, idx + idx_len);
  Rng rng(plan.seed);
  TraceSpan sample_span("train.sample");
  SampleBatchSeeds(&rng, sampler, out);
  sample_span.Stop();
  // Gather the receptive field's input features into a compact matrix.
  TraceSpan gather_span("train.gather");
  GatherBatchInputs(*node_features_, out);
  gather_span.Stop();

  if (task.categorical) {
    const std::vector<int32_t>& labels =
        validation ? task.val_labels : task.train_labels;
    out->labels.assign(labels.begin() + plan.start,
                       labels.begin() + plan.start + plan.bn);
  } else {
    const std::vector<float>& targets =
        validation ? task.val_targets : task.train_targets;
    out->targets.assign(targets.begin() + plan.start,
                        targets.begin() + plan.start + plan.bn);
  }
}

double Trainer::RunSampledPass(int epoch, Adam* opt, bool* ran) {
  const bool validation = opt == nullptr;
  const int64_t batch_size = options_.train.batch_size;
  EnsurePipeline();
  Series* batch_loss_series =
      validation
          ? nullptr
          : &MetricsRegistry::Global().GetSeries("grimp.batch.train_loss");
  // Salt separating validation streams from training streams.
  constexpr uint64_t kValSalt = 0x76616c6964ULL;  // "valid"

  // Batch ids are assigned in (task, offset) order — a pure function of
  // the data, so each batch's sampling stream is stable across runs,
  // thread counts and pipeline depths. The plans are fixed before the
  // pipeline starts; producers only ever read them.
  plans_.clear();
  uint64_t batch_id = 0;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const int64_t n = validation ? tasks_[t].NumVal() : tasks_[t].NumTrain();
    for (int64_t start = 0; start < n; start += batch_size) {
      BatchPlan plan;
      plan.task = static_cast<int>(t);
      plan.start = start;
      plan.bn = std::min(batch_size, n - start);
      // Training streams are keyed on (run seed, epoch, batch id).
      // Validation streams are keyed on (seed, task, batch) — deliberately
      // NOT on the epoch — so every epoch scores the same sampled
      // receptive fields and the early-stopping comparison is stable.
      plan.seed =
          validation
              ? MixSeed(options_.seed ^ kValSalt, static_cast<uint64_t>(t),
                        static_cast<uint64_t>(start / batch_size))
              : MixSeed(options_.seed, static_cast<uint64_t>(epoch),
                        batch_id++);
      plans_.push_back(plan);
    }
  }
  *ran = !plans_.empty();
  if (plans_.empty()) return 0.0;

  pipeline_->Begin(
      static_cast<int64_t>(plans_.size()),
      [this, validation](int64_t b, PreparedBatch* out,
                         NeighborSampler* sampler) {
        PrepareBatch(plans_[static_cast<size_t>(b)], validation, out,
                     sampler);
      });
  double loss_sum = 0.0;
  int current_task = plans_.front().task;
  double task_loss_sum = 0.0;
  // Task-boundary flush: the sample-weighted mean over a task's batches ==
  // the task's mean loss, the same quantity full mode reports per task,
  // accumulated in task order exactly like the serial loop.
  const auto flush_task = [&]() {
    const TrainTask& task = tasks_[static_cast<size_t>(current_task)];
    loss_sum += task_loss_sum / static_cast<double>(
                                    validation ? task.NumVal()
                                               : task.NumTrain());
  };
  for (const BatchPlan& plan : plans_) {
    if (plan.task != current_task) {
      flush_task();
      task_loss_sum = 0.0;
      current_task = plan.task;
    }
    // Reset before taking the next batch: the previous batch's tape
    // closures borrow the pipeline slot's adjacency/index storage, and
    // Next() is what releases that slot for recycling.
    tape_.Reset();
    PreparedBatch& batch = pipeline_->Next();
    const TrainTask& task = tasks_[static_cast<size_t>(plan.task)];

    Tape& tape = tape_;
    Tape::VarId h_shared = model_->EncodeBlocks(
        &tape, tape.Constant(std::move(batch.feats)), batch.sub,
        &gnn_scratch_);
    // Borrowing overloads: the index/label/target buffers live in the
    // pipeline slot, alive until the next batch's Reset + Next() — no
    // per-step copies.
    Tape::VarId out = model_->HeadForward(
        &tape, h_shared, static_cast<size_t>(plan.task), &batch.local_idx);
    Tape::VarId loss = TaskLoss(options_, &tape, task, out, &batch.labels,
                                &batch.targets);
    const double loss_value = tape.value(loss).scalar();
    if (!validation) {
      tape.Backward(loss);
      opt->ClipGradNorm(options_.grad_clip);
      opt->Step();
      opt->ZeroGrad();
      ++summary_.steps_run;
      batch_loss_series->Append(loss_value);
    }
    task_loss_sum += loss_value * static_cast<double>(plan.bn);
  }
  flush_task();
  pipeline_->End();
  return loss_sum;
}

Result<TrainSummary> Trainer::Run(const TrainCallbacks& callbacks) {
  const auto t0 = Now();
  const bool sampled = options_.train.mode == TrainMode::kSampled;
  summary_ = TrainSummary{};
  summary_.mode = options_.train.mode;

  params_.clear();
  model_->CollectParams(&params_);
  for (const Parameter* p : params_) {
    summary_.num_parameters += p->value.size();
  }
  for (const TrainTask& task : tasks_) {
    summary_.num_train_samples += task.NumTrain();
    summary_.num_val_samples += task.NumVal();
  }

  Adam opt(params_, options_.learning_rate);
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<Tensor> best_params;
  int epochs_since_best = 0;

  // Warm start: the incoming weights compete in the early-stopping
  // comparison like an epoch-0 result, so fine-tuning can only improve the
  // published model (by validation loss), never regress it.
  if (options_.train.warm_start && summary_.num_val_samples > 0) {
    bool has_val = false;
    const double initial = ValidationLoss(&has_val);
    if (has_val) {
      best_val = initial;
      best_params.reserve(params_.size());
      for (Parameter* p : params_) best_params.push_back(p->value);
    }
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("grimp.num_parameters")
      .Set(static_cast<double>(summary_.num_parameters));
  Series& train_loss_series = registry.GetSeries("grimp.epoch.train_loss");
  Series& val_loss_series = registry.GetSeries("grimp.epoch.val_loss");
  Series& epoch_seconds_series = registry.GetSeries("grimp.epoch.seconds");

  TraceSpan train_span("grimp.train");
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    const auto epoch_start = Now();
    double val_loss_sum = 0.0;
    bool has_val = false;
    bool trained = false;
    double train_loss = 0.0;
    if (sampled) {
      train_loss = RunSampledPass(epoch, &opt, &trained);
      // Skipped outright with no validation samples — the whole-graph
      // forward is not free.
      if (trained && summary_.num_val_samples > 0) {
        val_loss_sum = ValidationLoss(&has_val);
      }
    } else {
      train_loss = RunFullPass(&opt, &val_loss_sum, &has_val, &trained);
    }
    if (!trained) break;  // nothing to train on
    summary_.final_train_loss = train_loss;
    summary_.epochs_run = epoch + 1;

    if (options_.verbose && epoch % 10 == 0) {
      GRIMP_LOG(Info) << "train epoch " << epoch << " train_loss "
                      << summary_.final_train_loss << " val_loss "
                      << val_loss_sum;
    }
    // Early stopping on the summed validation loss.
    bool improved = false;
    bool stop_early = false;
    if (has_val) {
      if (val_loss_sum < best_val - 1e-6) {
        improved = true;
        best_val = val_loss_sum;
        epochs_since_best = 0;
        best_params.clear();
        best_params.reserve(params_.size());
        for (Parameter* p : params_) best_params.push_back(p->value);
      } else if (++epochs_since_best >= options_.patience) {
        stop_early = true;
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = summary_.final_train_loss;
    stats.val_loss = val_loss_sum;
    stats.has_val = has_val;
    stats.improved = improved;
    stats.seconds = SecondsSince(epoch_start);
    train_loss_series.Append(stats.train_loss);
    if (has_val) val_loss_series.Append(stats.val_loss);
    epoch_seconds_series.Append(stats.seconds);
    bool keep_going = true;
    if (callbacks.on_epoch_end) {
      keep_going = callbacks.on_epoch_end(stats);
    }
    if (stop_early || !keep_going) break;
  }
  train_span.Stop();
  if (!best_params.empty()) {
    for (size_t i = 0; i < params_.size(); ++i) {
      params_[i]->value = best_params[i];
    }
    summary_.best_val_loss = best_val;
  }
  summary_.train_seconds = SecondsSince(t0);
  TensorArena::Global().PublishMetrics();
  return summary_;
}

}  // namespace grimp
