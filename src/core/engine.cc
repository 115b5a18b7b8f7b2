#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <system_error>
#include <utility>

#include "common/binary_io.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "embedding/ngram_init.h"
#include "tensor/arena.h"
#include "tensor/simd.h"

namespace grimp {

namespace {

// Salt separating streaming-inference sampling streams from training's.
constexpr uint64_t kStreamSalt = 0x73747265616dULL;  // "stream"
// Salt for Resume's sample selection / fine-tune streams.
constexpr uint64_t kResumeSalt = 0x726573756d65ULL;  // "resume"

// GrimpOptions::Validate plus the engine's restrictions (engine.h): only
// string-hash features align across tables, and Transform decodes per
// attribute.
Status CheckEngineOptions(const GrimpOptions& options) {
  GRIMP_RETURN_IF_ERROR(options.Validate());
  if (options.features != FeatureInitKind::kNgram) {
    return Status::FailedPrecondition(
        "GrimpEngine requires kNgram features: only deterministic "
        "string-hash features align across tables (see engine.h)");
  }
  if (!options.multi_task) {
    return Status::FailedPrecondition(
        "GrimpEngine supports multi-task mode only");
  }
  return Status::OK();
}

// The inference featurization (TransformMany, AttentionSummary): the whole
// graph of `table` under Fit's graph options (recycling *scratch when
// non-null) and n-gram features from Fit's feature seed.
Status Featurize(const GrimpOptions& options, const Table& table,
                 TableGraph* tg, PretrainedFeatures* features,
                 GraphBuilder::Scratch* scratch = nullptr) {
  GRIMP_RETURN_IF_ERROR(GraphBuilder(GraphBuildOptionsFor(options))
                            .BuildInto(table, {}, tg, scratch));
  GRIMP_ASSIGN_OR_RETURN(
      *features,
      NgramFeatureInit().Init(table, *tg, options.dim,
                              DrawSeedStreams(options.seed).features));
  return Status::OK();
}

}  // namespace

GrimpEngine::GrimpEngine(GrimpOptions options)
    : options_(std::move(options)) {
  if (options_.num_threads > 0) {
    ThreadPool::SetGlobalThreads(options_.num_threads);
  }
}

Status GrimpEngine::CheckSchema(const Table& table) const {
  const Schema& schema = model_.schema();
  if (table.num_cols() != schema.num_fields()) {
    return Status::FailedPrecondition(
        "column count mismatch: fitted on " +
        std::to_string(schema.num_fields()) + ", got " +
        std::to_string(table.num_cols()));
  }
  for (int c = 0; c < table.num_cols(); ++c) {
    const Field& fitted = schema.field(c);
    const Field& given = table.schema().field(c);
    if (fitted.name != given.name || fitted.type != given.type) {
      return Status::FailedPrecondition("schema mismatch at column " +
                                        std::to_string(c) + " (" +
                                        fitted.name + " vs " + given.name +
                                        ")");
    }
  }
  return Status::OK();
}

Status GrimpEngine::CheckStreamContext(const StreamContext& ctx) const {
  if (ctx.table == nullptr || ctx.tg == nullptr || ctx.store == nullptr ||
      ctx.node_features == nullptr) {
    return Status::InvalidArgument(
        "StreamContext.table/tg/store/node_features must all be set");
  }
  if (!ctx.fanouts.empty() &&
      (static_cast<int>(ctx.fanouts.size()) != options_.gnn_layers ||
       std::any_of(ctx.fanouts.begin(), ctx.fanouts.end(),
                   [](int fanout) { return fanout <= 0; }))) {
    return Status::InvalidArgument(
        "StreamContext.fanouts must be empty or hold one fanout > 0 per GNN "
        "layer (" +
        std::to_string(options_.gnn_layers) + ")");
  }
  if (!options_.use_gnn) {
    return Status::FailedPrecondition(
        "live-graph training and inference run sampled blocks and require "
        "use_gnn");
  }
  GRIMP_RETURN_IF_ERROR(CheckSchema(*ctx.table));
  if (ctx.node_features->rows() != ctx.tg->graph.num_nodes() ||
      ctx.node_features->cols() != options_.dim) {
    return Status::InvalidArgument(
        "StreamContext.node_features shape does not match the live graph");
  }
  return Status::OK();
}

Status GrimpEngine::Fit(const Table& source) {
  GRIMP_RETURN_IF_ERROR(CheckEngineOptions(options_));
  if (source.num_rows() == 0 || source.num_cols() == 0) {
    return Status::InvalidArgument("empty table");
  }
  RecordThreadPoolMetrics();
  GRIMP_TRACE_SPAN("grimp.fit");
  GRIMP_RETURN_IF_ERROR(model_.Fit(options_, source, &summary_).status());
  fitted_ = true;
  return Status::OK();
}

Result<TrainSummary> GrimpEngine::Resume(const StreamContext& ctx,
                                         const ResumeOptions& resume) {
  if (!fitted_) return Status::FailedPrecondition("Fit() has not been run");
  GRIMP_RETURN_IF_ERROR(CheckStreamContext(ctx));
  const Table& live = *ctx.table;

  GrimpOptions local = options_;
  local.train.mode = TrainMode::kSampled;
  local.train.warm_start = true;
  if (!ctx.fanouts.empty()) local.train.fanouts = ctx.fanouts;
  if (resume.max_epochs > 0) local.max_epochs = resume.max_epochs;
  if (resume.learning_rate > 0.0f) {
    local.learning_rate = resume.learning_rate;
  }
  GRIMP_RETURN_IF_ERROR(local.Validate());
  GRIMP_TRACE_SPAN("grimp.resume");
  const int num_cols = model_.num_cols();

  const int64_t n = live.num_rows();
  const int64_t window =
      resume.window_rows > 0 ? std::min(resume.window_rows, n) : n;
  const int64_t row_begin = n - window;

  // Recency-weighted sample selection over the window's present cells.
  // Cells outside the fitted source domain are skipped: the task heads
  // were sized to the source dictionaries, so an unseen value has no
  // class to train toward (its edges still inform its neighbors).
  Rng rng(MixSeed(options_.seed ^ kResumeSalt, 0, resume.nonce));
  std::vector<TrainingSample> selected;
  for (int64_t r = row_begin; r < n; ++r) {
    double keep = 1.0;
    if (resume.half_life_rows > 0.0) {
      const double age = static_cast<double>(n - 1 - r);
      keep = std::exp2(-age / resume.half_life_rows);
    }
    for (int c = 0; c < num_cols; ++c) {
      const Column& col = live.column(c);
      if (col.IsMissing(r)) continue;
      if (col.is_categorical() &&
          col.CodeAt(r) >= model_.dicts()[static_cast<size_t>(c)].size()) {
        continue;
      }
      if (keep < 1.0 && !rng.Bernoulli(keep)) continue;
      selected.push_back(TrainingSample{r, c});
    }
  }
  if (selected.empty()) {
    summary_ = TrainSummary{};
    summary_.mode = TrainMode::kSampled;
    return summary_;
  }
  rng.Shuffle(&selected);
  const auto split = static_cast<size_t>(
      static_cast<double>(selected.size()) *
      (1.0 - local.validation_fraction));

  const std::span<const TrainingSample> samples(selected);
  Trainer trainer(local, ctx.store, ctx.node_features, &model_,
                  model_.MakeTrainTasks(live, *ctx.tg, samples.first(split),
                                        samples.subspan(split),
                                        /*max_train_per_task=*/0));
  GRIMP_ASSIGN_OR_RETURN(summary_, trainer.Run(local.callbacks));
  return summary_;
}

namespace {
constexpr uint64_t kModelMagic = 0x4752494d504d444cULL;  // "GRIMPMDL"
// v2: trailing FNV-1a checksum footer over the whole payload.
constexpr uint32_t kModelVersion = 2;

// Reads an enum stored as int32, rejecting values outside [0, last].
template <typename E>
Result<E> ReadEnum(BinaryReader* reader, E last, const char* what) {
  GRIMP_ASSIGN_OR_RETURN(int32_t value, reader->ReadI32());
  if (value < 0 || value > static_cast<int32_t>(last)) {
    return Status::InvalidArgument(std::string("corrupt ") + what + ": " +
                                   std::to_string(value));
  }
  return static_cast<E>(value);
}
}  // namespace


Result<Tensor> GrimpEngine::AttentionSummary(const Table& table) const {
  if (!fitted_) return Status::FailedPrecondition("Fit() has not been run");
  if (options_.task_kind != TaskKind::kAttention) {
    return Status::FailedPrecondition("attention tasks required");
  }
  GRIMP_RETURN_IF_ERROR(CheckSchema(table));
  const int num_cols = table.num_cols();

  TableGraph tg;
  PretrainedFeatures features;
  GRIMP_RETURN_IF_ERROR(Featurize(options_, table, &tg, &features));

  Tape tape;
  Tape::VarId h_shared = model_.Encode(
      &tape, tape.Constant(std::move(features.node_features)), tg.graph);
  Tensor summary(num_cols, num_cols);
  std::vector<int32_t> idx;
  std::vector<GrimpModel::Cell> cells;
  for (size_t t = 0; t < model_.num_tasks(); ++t) {
    const int col = model_.task_col(t);
    idx.clear();
    cells.clear();
    model_.AppendImputeCells(t, table, tg, 0, table.num_rows(), 0, 0, &idx,
                             &cells);
    if (cells.empty()) continue;
    Tensor att;
    (void)dynamic_cast<const AttentionTaskHead&>(model_.head(t))
        .ForwardWithAttention(
            &tape,
            tape.Reshape(tape.GatherRows(h_shared, idx),
                         static_cast<int64_t>(cells.size()),
                         static_cast<int64_t>(num_cols) * options_.dim),
            &att);
    for (int64_t r = 0; r < att.rows(); ++r) {
      for (int c = 0; c < num_cols; ++c) {
        summary.at(col, c) += att.at(r, c) / static_cast<float>(att.rows());
      }
    }
  }
  return summary;
}

Status GrimpEngine::Save(const std::string& path) {
  if (!fitted_) return Status::FailedPrecondition("Fit() has not been run");
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IoError("cannot open " + path);
  writer.WriteU64(kModelMagic);
  writer.WriteU32(kModelVersion);

  // Configuration (only the fields that shape the model / inference).
  writer.WriteI32(static_cast<int32_t>(options_.features));
  writer.WriteI32(static_cast<int32_t>(options_.task_kind));
  writer.WriteI32(static_cast<int32_t>(options_.k_strategy));
  writer.WriteI32(options_.dim);
  writer.WriteI32(options_.shared_hidden);
  writer.WriteI32(options_.task_hidden);
  writer.WriteI32(options_.gnn_layers);
  writer.WriteBool(options_.use_gnn);
  writer.WriteI32(options_.graph.neighbor_cap);
  writer.WriteU64(options_.seed);
  writer.WriteU64(options_.fds.size());
  for (const FunctionalDependency& fd : options_.fds) {
    writer.WriteU64(fd.lhs.size());
    for (int col : fd.lhs) writer.WriteI32(col);
    writer.WriteI32(fd.rhs);
  }

  // Source schema, domains and normalizer.
  writer.WriteU64(static_cast<uint64_t>(model_.num_cols()));
  for (const Field& field : model_.schema().fields()) {
    writer.WriteString(field.name);
    writer.WriteI32(static_cast<int32_t>(field.type));
  }
  for (const Dictionary& dict : model_.dicts()) {
    writer.WriteStringVector(dict.values());
    writer.WriteI64Vector(dict.counts());
  }
  writer.WriteF64Vector(model_.normalizer().means());
  writer.WriteF64Vector(model_.normalizer().stds());

  // Trained weights, in CollectParams order.
  std::vector<Parameter*> params;
  model_.CollectParams(&params);
  writer.WriteU64(params.size());
  for (const Parameter* p : params) {
    writer.WriteString(p->name);
    writer.WriteI64(p->value.rows());
    writer.WriteI64(p->value.cols());
    std::vector<float> data(p->value.data(),
                            p->value.data() + p->value.size());
    writer.WriteF32Vector(data);
  }
  // Footer: FNV-1a over every payload byte above, so Load can reject
  // truncated or bit-flipped artifacts before deserializing them.
  const uint64_t checksum = writer.hash();
  writer.WriteU64(checksum);
  return writer.Close();
}

Result<std::unique_ptr<GrimpEngine>> GrimpEngine::Load(
    const std::string& path) {
  BinaryReader reader(path);
  GRIMP_RETURN_IF_ERROR(reader.status());
  GRIMP_ASSIGN_OR_RETURN(uint64_t magic, reader.ReadU64());
  if (magic != kModelMagic) {
    return Status::InvalidArgument("not a GRIMP model file: " + path);
  }
  GRIMP_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kModelVersion) {
    return Status::InvalidArgument(
        "unsupported model version in " + path + ": expected " +
        std::to_string(kModelVersion) + ", found " + std::to_string(version));
  }
  // The sequential reader below never consumes the 8-byte footer, so the
  // whole-file pass here is the only integrity check.
  GRIMP_RETURN_IF_ERROR(VerifyTrailingChecksum(path));

  // A checksum-valid file can still carry fields no Fit writes: every
  // enum is range-checked and every size validated before it shapes a
  // tensor, so such files fail with InvalidArgument instead of crashing.
  GrimpOptions options;
  GRIMP_ASSIGN_OR_RETURN(options.features,
                         ReadEnum(&reader, FeatureInitKind::kEmbdi,
                                  "feature kind"));
  GRIMP_ASSIGN_OR_RETURN(options.task_kind,
                         ReadEnum(&reader, TaskKind::kAttention,
                                  "task kind"));
  GRIMP_ASSIGN_OR_RETURN(options.k_strategy,
                         ReadEnum(&reader, KStrategy::kWeakDiagonalFd,
                                  "K strategy"));
  GRIMP_ASSIGN_OR_RETURN(options.dim, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.shared_hidden, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.task_hidden, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.gnn_layers, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.use_gnn, reader.ReadBool());
  GRIMP_ASSIGN_OR_RETURN(options.graph.neighbor_cap, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.seed, reader.ReadU64());
  GRIMP_ASSIGN_OR_RETURN(uint64_t num_fds, reader.ReadU64());
  if (num_fds > BinaryReader::kMaxLength) {
    return Status::InvalidArgument("corrupt FD count");
  }
  for (uint64_t i = 0; i < num_fds; ++i) {
    FunctionalDependency fd;
    GRIMP_ASSIGN_OR_RETURN(uint64_t lhs_size, reader.ReadU64());
    if (lhs_size > BinaryReader::kMaxLength) {
      return Status::InvalidArgument("corrupt FD");
    }
    for (uint64_t k = 0; k < lhs_size; ++k) {
      GRIMP_ASSIGN_OR_RETURN(int32_t col, reader.ReadI32());
      fd.lhs.push_back(col);
    }
    GRIMP_ASSIGN_OR_RETURN(fd.rhs, reader.ReadI32());
    options.fds.push_back(std::move(fd));
  }
  if (Status valid = CheckEngineOptions(options); !valid.ok()) {
    return Status::InvalidArgument("corrupt model options in " + path +
                                   ": " + valid.message());
  }

  GRIMP_ASSIGN_OR_RETURN(uint64_t num_fields, reader.ReadU64());
  if (num_fields == 0 || num_fields > 4096) {
    return Status::InvalidArgument("corrupt field count");
  }
  const auto is_field = [&](int col) {
    return col >= 0 && static_cast<uint64_t>(col) < num_fields;
  };
  for (const FunctionalDependency& fd : options.fds) {
    if (!is_field(fd.rhs) || !std::all_of(fd.lhs.begin(), fd.lhs.end(),
                                          is_field)) {
      return Status::InvalidArgument("corrupt FD: column out of range");
    }
  }
  // Every weight is stored in the file, so an architecture with more
  // floats than the file has bytes is corrupt. The bound counts the shared
  // MLP, one dim x dim matrix per GNN layer and one dim x task_hidden layer
  // per head — far below the real size, but enough to refuse dimensions
  // that would exhaust memory in Build.
  const double min_floats =
      2.0 * options.dim * options.shared_hidden +
      (options.use_gnn ? 1.0 * options.gnn_layers * options.dim * options.dim
                       : 0.0) +
      1.0 * static_cast<double>(num_fields) * options.dim *
          options.task_hidden;
  std::error_code size_error;
  const uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
  if (size_error || 4.0 * min_floats > static_cast<double>(file_bytes)) {
    return Status::InvalidArgument(
        "corrupt model dimensions: the weights cannot fit in " + path);
  }
  std::vector<Field> fields;
  for (uint64_t c = 0; c < num_fields; ++c) {
    Field field;
    GRIMP_ASSIGN_OR_RETURN(field.name, reader.ReadString());
    GRIMP_ASSIGN_OR_RETURN(field.type, ReadEnum(&reader, AttrType::kNumerical,
                                                "attribute type"));
    fields.push_back(std::move(field));
  }
  std::vector<Dictionary> dicts;
  for (uint64_t c = 0; c < num_fields; ++c) {
    GRIMP_ASSIGN_OR_RETURN(auto values, reader.ReadStringVector());
    GRIMP_ASSIGN_OR_RETURN(auto counts, reader.ReadI64Vector());
    if (values.size() != counts.size()) {
      return Status::InvalidArgument("corrupt dictionary");
    }
    Dictionary dict;
    for (size_t i = 0; i < values.size(); ++i) {
      const int32_t code = dict.GetOrAdd(values[i]);
      dict.AddOccurrence(code, counts[i]);
    }
    dicts.push_back(std::move(dict));
  }
  GRIMP_ASSIGN_OR_RETURN(auto means, reader.ReadF64Vector());
  GRIMP_ASSIGN_OR_RETURN(auto stds, reader.ReadF64Vector());
  if (means.size() != num_fields || stds.size() != num_fields) {
    return Status::InvalidArgument("corrupt normalizer");
  }

  // Rebuild the architecture (zero Q seeds: the stored weights overwrite
  // them), then overwrite every weight.
  auto engine = std::make_unique<GrimpEngine>(options);
  Rng model_rng(options.seed);
  engine->model_.Build(
      options, Schema(std::move(fields)), std::move(dicts),
      Normalizer::FromMoments(std::move(means), std::move(stds)),
      Tensor::Zeros(static_cast<int64_t>(num_fields), options.dim),
      &model_rng);
  std::vector<Parameter*> params;
  engine->model_.CollectParams(&params);
  GRIMP_ASSIGN_OR_RETURN(uint64_t num_params, reader.ReadU64());
  if (num_params != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(num_params) +
        ", architecture has " + std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    GRIMP_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    GRIMP_ASSIGN_OR_RETURN(int64_t rows, reader.ReadI64());
    GRIMP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadI64());
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::InvalidArgument("tensor shape mismatch for " + name);
    }
    GRIMP_ASSIGN_OR_RETURN(auto data, reader.ReadF32Vector());
    if (static_cast<int64_t>(data.size()) != p->value.size()) {
      return Status::InvalidArgument("tensor size mismatch for " + name);
    }
    p->value = Tensor::FromVector(rows, cols, std::move(data));
  }
  engine->fitted_ = true;
  return engine;
}

Status GrimpEngine::CheckCompatible(const Table& table) const {
  if (!fitted_) return Status::FailedPrecondition("Fit() has not been run");
  return CheckSchema(table);
}

Result<Table> GrimpEngine::Transform(const Table& table) const {
  GRIMP_TRACE_SPAN("grimp.transform");
  Table imputed = table;
  Table* ptr = &imputed;
  GRIMP_RETURN_IF_ERROR(TransformMany(std::span<Table* const>(&ptr, 1)));
  return imputed;
}

namespace {

// Per-thread reusable state for batch-mode TransformMany. Every container
// here is cleared — never shrunk — between requests, so once a serving
// thread has seen its largest batch the whole inference pass stops
// touching the allocator (the tensors themselves recycle through the
// TensorArena). Only used when the arena is enabled; with it disabled the
// scratch is a stack local so behavior matches the historical
// allocate-per-call path.
struct TransformScratch {
  struct Request {
    TableGraph tg;
    PretrainedFeatures features;
    int64_t offset = 0;  // this request's first node id in the union
  };

  Tape tape;
  GraphBuilder::Scratch graph;
  std::vector<Request> requests;
  HeteroGraph union_graph;
  std::vector<CsrAdjacency> union_adj;  // recycled outer vector
  CsrAdjacency::Scratch union_csr;      // recycled offsets/indices storage
  GnnScratch gnn;
  // Per-task gather indices; the tape borrows these (see GatherRows), so
  // each task needs its own vector that stays alive until the next Reset.
  std::vector<std::vector<int32_t>> task_idx;
  std::vector<GrimpModel::Cell> cells;
  // Deferred cell writes: every model read (CodeAt/IsMissing during index
  // building) happens before any table is mutated, which leaves the inputs
  // untouched if anything fails first.
  std::vector<GrimpModel::Decision> decisions;
};

}  // namespace

Status GrimpEngine::TransformMany(std::span<Table* const> tables,
                                  const TransformOptions& options) const {
  if (!fitted_) return Status::FailedPrecondition("Fit() has not been run");
  if (options.stream != nullptr) {
    if (tables.size() != 1) {
      return Status::InvalidArgument(
          "streaming TransformMany takes exactly one window table, got " +
          std::to_string(tables.size()));
    }
    if (tables[0] == nullptr) {
      return Status::InvalidArgument("null table in batch");
    }
    return TransformStream(tables[0], *options.stream);
  }
  if (tables.empty()) return Status::OK();
  for (const Table* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table in batch");
    GRIMP_RETURN_IF_ERROR(CheckSchema(*t));
  }
  GRIMP_TRACE_SPAN("grimp.transform_batch");
  const int num_cols = model_.num_cols();
  const int dim = options_.dim;

  const bool reuse = TensorArena::Global().enabled();
  thread_local std::unique_ptr<TransformScratch> tls_scratch;
  std::unique_ptr<TransformScratch> local_scratch;
  if (reuse) {
    if (tls_scratch == nullptr) {
      tls_scratch = std::make_unique<TransformScratch>();
    }
  } else {
    local_scratch = std::make_unique<TransformScratch>();
  }
  TransformScratch& s = reuse ? *tls_scratch : *local_scratch;
  // Reset first: dropping the previous request's tape closures releases
  // the GNN mask buffers back to use_count()==1 so the scratch path can
  // refill them in place.
  s.tape.Reset();

  // Each request gets the graph and features a solo Transform() would
  // build. Batching then stitches the per-request graphs into a
  // block-diagonal disjoint union: message passing cannot cross request
  // boundaries, and every kernel downstream is row-independent, so each
  // result is bit-identical to its solo Transform().
  if (s.requests.size() < tables.size()) s.requests.resize(tables.size());
  int64_t total_nodes = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    TransformScratch::Request& ctx = s.requests[i];
    GRIMP_RETURN_IF_ERROR(
        Featurize(options_, *tables[i], &ctx.tg, &ctx.features, &s.graph));
    ctx.offset = total_nodes;
    total_nodes += ctx.tg.graph.num_nodes();
  }
  GRIMP_CHECK(total_nodes < std::numeric_limits<int32_t>::max());

  // Union node table + features, then one stitched CSR per edge type.
  // FromParts adopts each neighbor list verbatim (only shifted), so
  // SegmentMean aggregates in exactly the per-request order.
  s.union_graph.Reset(&s.union_csr, &s.union_adj);
  Tensor union_feats(total_nodes, dim);
  for (size_t i = 0; i < tables.size(); ++i) {
    const TransformScratch::Request& ctx = s.requests[i];
    for (const NodeInfo& info : ctx.tg.graph.nodes()) {
      s.union_graph.AddNode(info);
    }
    const Tensor& f = ctx.features.node_features;
    std::copy(f.data(), f.data() + f.size(),
              union_feats.data() + ctx.offset * dim);
  }
  std::vector<CsrAdjacency>& union_adj = s.union_adj;
  for (int t = 0; t < num_cols; ++t) {
    std::vector<int32_t> offsets = s.union_csr.Take();
    std::vector<int32_t> indices = s.union_csr.Take();
    offsets.clear();
    indices.clear();
    offsets.push_back(0);
    for (size_t i = 0; i < tables.size(); ++i) {
      const CsrAdjacency& adj = s.requests[i].tg.graph.adjacency(t);
      const int32_t edge_base = static_cast<int32_t>(indices.size());
      for (size_t k = 1; k < adj.offsets().size(); ++k) {
        offsets.push_back(adj.offsets()[k] + edge_base);
      }
      for (int32_t dst : adj.indices()) {
        indices.push_back(dst +
                          static_cast<int32_t>(s.requests[i].offset));
      }
    }
    union_adj.push_back(
        CsrAdjacency::FromParts(std::move(offsets), std::move(indices)));
  }
  s.union_graph.SetAdjacency(std::move(union_adj));

  Tape& tape = s.tape;
  Tape::VarId h_shared = model_.Encode(
      &tape, tape.Constant(std::move(union_feats)), s.union_graph, &s.gnn);
  if (s.task_idx.size() < model_.num_tasks()) {
    s.task_idx.resize(model_.num_tasks());
  }
  s.decisions.clear();
  for (size_t t = 0; t < model_.num_tasks(); ++t) {
    std::vector<int32_t>& idx = s.task_idx[t];
    idx.clear();
    s.cells.clear();
    for (size_t i = 0; i < tables.size(); ++i) {
      model_.AppendImputeCells(t, *tables[i], s.requests[i].tg, 0,
                               tables[i]->num_rows(), s.requests[i].offset,
                               static_cast<uint32_t>(i), &idx, &s.cells);
    }
    model_.Decide(&tape, h_shared, t, &idx, s.cells, &s.decisions);
  }
  // All reads are done; apply the writes.
  model_.Apply(s.decisions, tables);
  TensorArena::Global().PublishMetrics();
  return Status::OK();
}

Status GrimpEngine::TransformStream(Table* window,
                                    const StreamContext& ctx) const {
  GRIMP_RETURN_IF_ERROR(CheckStreamContext(ctx));
  GRIMP_RETURN_IF_ERROR(CheckSchema(*window));
  const Table& live = *ctx.table;
  const int64_t w = window->num_rows();
  if (ctx.row_begin < 0 || ctx.row_begin + w > live.num_rows()) {
    return Status::OutOfRange(
        "stream window rows [" + std::to_string(ctx.row_begin) + ", " +
        std::to_string(ctx.row_begin + w) + ") outside the live table (" +
        std::to_string(live.num_rows()) + " rows)");
  }
  GRIMP_TRACE_SPAN("grimp.transform_stream");

  // One sampled forward per task, prepared inline: the window scan, then
  // sampling (which prefetches and pins shards) and the feature gather.
  // Each task's sampling stream is keyed on (seed, task, nonce), never on
  // graph state or thread count, so incremental and rebuilt live graphs
  // impute identically. Writes are deferred, exactly like batch mode:
  // every live-table read happens before the window is mutated.
  NeighborSampler sampler(
      ctx.store, model_.Fanouts(ctx.fanouts.empty() ? options_.train.fanouts
                                                    : ctx.fanouts));
  PreparedBatch batch;
  GnnScratch gnn;
  std::vector<GrimpModel::Cell> cells;
  std::vector<GrimpModel::Decision> decisions;
  Tape tape;
  for (size_t t = 0; t < model_.num_tasks(); ++t) {
    // Reset first: the previous task's tape closures borrow the batch's
    // adjacency and gather-index storage, which this task refills.
    tape.Reset();
    batch.local_idx.clear();
    cells.clear();
    model_.AppendImputeCells(t, live, *ctx.tg, ctx.row_begin,
                             ctx.row_begin + w, 0, 0, &batch.local_idx,
                             &cells);
    if (cells.empty()) continue;
    Rng rng(MixSeed(options_.seed ^ kStreamSalt, t, ctx.nonce));
    SampleBatchSeeds(&rng, &sampler, &batch);
    GatherBatchInputs(*ctx.node_features, &batch);
    Tape::VarId h_shared = model_.EncodeBlocks(
        &tape, tape.Constant(std::move(batch.feats)), batch.sub, &gnn);
    model_.Decide(&tape, h_shared, t, &batch.local_idx, cells, &decisions);
  }

  model_.Apply(decisions, std::span<Table* const>(&window, 1));
  TensorArena::Global().PublishMetrics();
  return Status::OK();
}

}  // namespace grimp
