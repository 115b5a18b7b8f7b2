// stream_drift: the drifting temporal stream replayed through a
// StreamingEngine on a 1-thread pool.
//
// Set-up fits a GrimpEngine on the stream's prefix and creates the
// StreamingEngine with a ModelRegistry. The measured phase replays the rest
// of the stream in episodes: each episode restarts from the fitted model
// (Load + Create, untimed) and, per batch, runs IngestBatch then
// ImputeWindow, with FineTune (publishing name@vN) every kFineTuneEvery
// batches. Every episode does the same work, so throughput does not depend
// on how far a run gets into a growing live graph. This is the write side
// of the graph layer (GraphStore::Append, delta merge, stream/live_graph)
// next to sampled reads.

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/temporal.h"
#include "embedding/ngram_init.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "serve/model_registry.h"
#include "stream/streaming_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 3;
constexpr double kMissingFraction = 0.2;
constexpr int kFitEpochs = 12;
constexpr int64_t kPrefixRows = 2048;
constexpr int64_t kBatchRows = 64;
constexpr int64_t kBatches = 48;
constexpr int kFineTuneEvery = 12;
constexpr int kFineTuneEpochs = 2;
constexpr int kDim = 16;
const std::vector<int> kFanouts = {4, 4};
// Episode-0 windows at these batch indices are compared bit for bit with a
// from-scratch rebuild (every kRebuildEvery-th batch).
constexpr int64_t kRebuildEvery = 8;
constexpr char kModel[] = "stream";
// Freshness percentiles are medians over windows of kWindow batches (ten
// samples beyond each window's p95; see WindowedPercentile).
constexpr size_t kWindow = 200;
// The traced run also reports the p99, over windows of kTailWindow.
constexpr size_t kTailWindow = 1000;

bool SameTable(const grimp::Table& a, const grimp::Table& b) {
  return a.num_rows() == b.num_rows() && a.num_cols() == b.num_cols() &&
         TableFingerprint(a) == TableFingerprint(b);
}

// The batch-rebuild baseline of bench_stream: the live table plus a full
// rebuild (segmented Build, n-gram features, in-memory store) in the same
// segmented node layout, so sampled inference with the same nonce must
// reproduce the streaming window bit for bit.
struct RebuildBaseline {
  grimp::Table table;
  std::vector<grimp::GraphSegment> segments;
  uint64_t feature_seed = 0;
  grimp::TableGraph tg;
  grimp::Tensor features;
  std::unique_ptr<grimp::InMemoryGraphStore> store;

  void SealSegment() {
    grimp::GraphSegment seg;
    seg.row_end = table.num_rows();
    for (int c = 0; c < table.num_cols(); ++c) {
      seg.code_end.push_back(table.column(c).dict().size());
    }
    segments.push_back(std::move(seg));
  }

  bool Rebuild() {
    auto tg_or = grimp::GraphBuilder().Build(table, segments, {});
    if (!tg_or.ok()) return false;
    tg = std::move(*tg_or);
    auto features_or =
        grimp::NgramFeatureInit().Init(table, tg, kDim, feature_seed);
    if (!features_or.ok()) return false;
    features = std::move(features_or->node_features);
    store = std::make_unique<grimp::InMemoryGraphStore>(
        static_cast<const grimp::HeteroGraph*>(&tg.graph));
    return true;
  }

  // Imputes the last `window` rows with the given engine and nonce.
  grimp::Result<grimp::Table> Window(const grimp::GrimpEngine& engine,
                                     int64_t window, uint64_t nonce) const {
    const int64_t n = table.num_rows();
    const int64_t begin = n - std::min(window, n);
    grimp::Table out(table.schema());
    for (int64_t r = begin; r < n; ++r) {
      GRIMP_RETURN_IF_ERROR(out.AppendRow(grimp::RowStrings(table, r)));
    }
    grimp::StreamContext ctx;
    ctx.table = &table;
    ctx.tg = &tg;
    ctx.store = store.get();
    ctx.node_features = &features;
    ctx.row_begin = begin;
    ctx.fanouts = kFanouts;
    ctx.nonce = nonce;
    grimp::TransformOptions options;
    options.stream = &ctx;
    grimp::Table* ptr = &out;
    GRIMP_RETURN_IF_ERROR(
        engine.TransformMany(std::span<grimp::Table* const>(&ptr, 1), options));
    return out;
  }
};

struct Totals {
  double measured_s = 0.0;
  int64_t rows = 0;
  int64_t batches = 0;
  std::vector<double> freshness_ms;
  std::vector<double> impute_s;
  std::vector<double> ingest_ms;
  std::vector<double> fine_tune_s;
  std::vector<double> new_edges;
};

class StreamBench {
 public:
  StreamBench(const RunArgs& args, Report* report)
      : args_(args), report_(report) {}

  bool Setup() {
    ScopedSpan span("bench.setup");
    streaming_.reset();
    registry_.reset();
    grimp::TemporalStreamSpec spec;
    spec.rows = kPrefixRows + kBatches * kBatchRows;
    spec.missing_fraction = 0.0;
    auto data = grimp::GenerateTemporalStream(spec, kReplicaSeed);
    if (!data.ok()) return false;
    data_.truth = std::move(data->truth);
    // MCAR gaps from --seed over every column but the tick (column 0), the
    // stream generator's own rule.
    data_.dirty = grimp::Table(data_.truth.schema());
    grimp::Rng gaps(Mix(args_.seed));
    for (int64_t r = 0; r < data_.truth.num_rows(); ++r) {
      std::vector<std::string> cells = grimp::RowStrings(data_.truth, r);
      for (size_t c = 1; c < cells.size(); ++c) {
        if (gaps.Bernoulli(kMissingFraction)) cells[c].clear();
      }
      if (!data_.dirty.AppendRow(cells).ok()) return false;
    }
    stds_ = ColumnStds(data_.truth);
    prefix_ = grimp::Table(data_.dirty.schema());
    for (int64_t r = 0; r < kPrefixRows; ++r) {
      if (!prefix_.AppendRow(grimp::RowStrings(data_.dirty, r)).ok()) {
        return false;
      }
    }
    options_ = PinnedOptions(1, kFitEpochs);
    options_.dim = kDim;
    options_.shared_hidden = 32;
    options_.train.mode = grimp::TrainMode::kSampled;
    options_.train.batch_size = 128;
    options_.train.fanouts = kFanouts;
    epochs_.Attach(&options_);
    auto engine = std::make_unique<grimp::GrimpEngine>(options_);
    if (!engine->Fit(prefix_).ok()) return false;
    model_path_ = args_.work_dir + "/stream_model.bin";
    if (!engine->Save(model_path_).ok()) return false;
    return Create(std::move(engine));
  }

  void Run() {
    const Totals untraced =
        Measure(args_.trace ? args_.seconds / 2 : args_.seconds);
    SetEndToEnd(untraced);
    if (!args_.trace) return;
    Tracer::Global().Enable(args_.workload + "-" + std::to_string(args_.seed));
    ProbeConfig config;
    config.fanouts = kFanouts;
    config.dim = kDim;
    ProbeGraphLayers(data_.dirty, config, args_.seed, report_);
    // The serve and net layers, over the registry a fresh episode publishes
    // into (the fitted model as stream@v0).
    if (!Reset()) {
      report_->Check(false, "episode reset");
      return;
    }
    report_->context["serving_probe_threads"] = "3";
    ProbeServeLayers(args_, registry_.get(), kModel, data_.truth, report_);
    const RegistryDelta delta;
    const double start = Now();
    const Totals traced = Measure(args_.seconds / 2);
    const double wall = Now() - start;
    RecordRegistryLayers(delta, report_);
    Metrics& m = report_->layers;
    m.Set("stream.ingest_ms", Median(traced.ingest_ms), "ms");
    m.Set("stream.impute_window_ms", Median(traced.impute_s) * 1e3, "ms");
    m.Set("stream.fine_tune_s", Median(traced.fine_tune_s), "s");
    m.Set("stream.edges_per_batch", Median(traced.new_edges), "count");
    m.Set("stream.freshness_p99_ms",
          WindowedPercentile(traced.freshness_ms, kTailWindow, 99.0), "ms");
    m.Set("core.epoch_s", Median(epochs_.rest), "s");
    m.Set("core.first_epoch_s", Median(epochs_.first), "s");
    RecordTraceSummary(untraced.measured_s / static_cast<double>(untraced.rows),
                       traced.measured_s / static_cast<double>(traced.rows),
                       start, wall, report_);
  }

 private:
  bool Create(std::unique_ptr<grimp::GrimpEngine> engine) {
    streaming_.reset();
    registry_ = std::make_unique<grimp::ModelRegistry>();
    grimp::StreamingOptions options;
    options.window_rows = kBatchRows;
    options.fanouts = kFanouts;
    options.fine_tune_epochs = kFineTuneEpochs;
    options.model_name = kModel;
    options.publish_dir = args_.work_dir + "/publish";
    std::filesystem::remove_all(options.publish_dir);
    std::filesystem::create_directories(options.publish_dir);
    auto streaming = grimp::StreamingEngine::Create(
        std::move(engine), prefix_, options, registry_.get());
    if (!streaming.ok()) return false;
    streaming_ = std::move(*streaming);
    return true;
  }

  // Restarts from the fitted model saved at set-up.
  bool Reset() {
    ScopedSpan span("bench.reset");
    auto engine = grimp::GrimpEngine::Load(model_path_);
    return engine.ok() && Create(std::move(*engine));
  }

  Totals Measure(double seconds) {
    Totals totals;
    const double end = Now() + seconds;
    do {
      if (!streaming_ && !Reset()) {
        report_->Check(false, "episode reset");
        break;
      }
      Episode(&totals);
      streaming_.reset();
    } while (Now() < end);
    return totals;
  }

  void Episode(Totals* totals) {
    const bool first = episodes_ == 0;
    RebuildBaseline baseline;
    if (first) {
      baseline.table = prefix_;
      grimp::Rng rng(options_.seed);  // GrimpEngine::Fit's feature seed
      rng.Fork();
      baseline.feature_seed = rng.Next();
      baseline.SealSegment();
    }
    for (int64_t i = 0; i < kBatches; ++i) {
      const int64_t begin = kPrefixRows + i * kBatchRows;
      grimp::StreamBatch batch;
      for (int64_t r = begin; r < begin + kBatchRows; ++r) {
        batch.rows.push_back(grimp::RowStrings(data_.dirty, r));
      }
      const double t0 = Now();
      grimp::Result<grimp::IngestStats> stats = [&] {
        ScopedSpan span("stream.ingest");
        return streaming_->IngestBatch(batch);
      }();
      const double t1 = Now();
      grimp::Result<grimp::Table> window = [&] {
        ScopedSpan span("stream.impute_window");
        return streaming_->ImputeWindow();
      }();
      const double t2 = Now();
      report_->Check(stats.ok(), "IngestBatch");
      report_->Check(window.ok(), "ImputeWindow");
      totals->measured_s += t2 - t0;
      totals->rows += kBatchRows;
      totals->batches += 1;
      totals->freshness_ms.push_back((t2 - t0) * 1e3);
      totals->impute_s.push_back(t2 - t1);
      totals->ingest_ms.push_back((t1 - t0) * 1e3);
      if (stats.ok()) {
        totals->new_edges.push_back(static_cast<double>(stats->new_edges));
      }
      if (window.ok()) CheckWindow(i, batch, *window, first, &baseline);

      if ((i + 1) % kFineTuneEvery == 0) {
        const double f0 = Now();
        bool ok = false;
        {
          ScopedSpan span("stream.fine_tune");
          ok = streaming_->FineTune().ok();
        }
        const double fine_tune_s = Now() - f0;
        report_->Check(ok, "FineTune");
        totals->fine_tune_s.push_back(fine_tune_s);
        totals->measured_s += fine_tune_s;
      }
    }
    ++episodes_;
  }

  // Untimed output checks of batch i's window: episode 0 is scored, and
  // every kRebuildEvery-th window must match a from-scratch rebuild; later
  // episodes must repeat episode 0 exactly.
  void CheckWindow(int64_t i, const grimp::StreamBatch& batch,
                   const grimp::Table& window, bool first,
                   RebuildBaseline* baseline) {
    ScopedSpan span("bench.check");
    const uint64_t fp = TableFingerprint(window);
    if (!first) {
      report_->Check(fp == window_fps_[static_cast<size_t>(i)],
                     "window repeats episode 0 exactly");
      return;
    }
    window_fps_.push_back(fp);
    const int64_t begin = kPrefixRows + i * kBatchRows;
    for (int64_t w = 0; w < window.num_rows(); ++w) {
      for (int c = 0; c < window.num_cols(); ++c) {
        if (data_.dirty.IsMissing(begin + w, c)) {
          score_.Add(window, w, data_.truth, begin + w, c, stds_);
        }
      }
    }
    for (const auto& row : batch.rows) {
      report_->Check(baseline->table.AppendRow(row).ok(), "baseline append");
    }
    baseline->SealSegment();
    if (i % kRebuildEvery != kRebuildEvery - 1) return;
    bool same = baseline->Rebuild();
    if (same) {
      auto rebuilt = baseline->Window(streaming_->engine(), kBatchRows,
                                      static_cast<uint64_t>(i));
      same = rebuilt.ok() && SameTable(*rebuilt, window);
    }
    report_->Check(same, "window is bit-identical to a rebuild");
  }

  void SetEndToEnd(const Totals& t) {
    Metrics& m = report_->e2e;
    m.Set("rows_per_s", static_cast<double>(t.rows) / t.measured_s, "1/s");
    m.Set("req_per_s", static_cast<double>(t.batches) / t.measured_s, "1/s");
    m.Set("p50_ms", WindowedPercentile(t.freshness_ms, kWindow, 50.0), "ms");
    m.Set("p95_ms", WindowedPercentile(t.freshness_ms, kWindow, 95.0), "ms");
    m.Set("impute_s", Median(t.impute_s), "s");
    m.Set("accuracy", score_.Accuracy(), "fraction");
    m.Set("rmse", score_.Rmse(), "sd");
  }

  const RunArgs& args_;
  Report* report_;
  grimp::TemporalStream data_;
  std::vector<double> stds_;
  grimp::Table prefix_;
  grimp::GrimpOptions options_;
  std::string model_path_;
  EpochLog epochs_;
  std::unique_ptr<grimp::ModelRegistry> registry_;
  std::unique_ptr<grimp::StreamingEngine> streaming_;
  int64_t episodes_ = 0;
  std::vector<uint64_t> window_fps_;
  Score score_;
};

}  // namespace

void RunStreamDrift(const RunArgs& args, Report* report) {
  grimp::ThreadPool::SetGlobalThreads(1);
  report->context["pool_threads"] = "1";
  report->context["pipeline_depth"] = "0";
  report->context["scheduler_workers"] = "0";
  report->context["threads_total"] = "1";
  report->context["connections"] = "0";

  StreamBench bench(args, report);
  if (!MeasureSetup(kSetups, [&] { return bench.Setup(); }, report)) return;
  bench.Run();
}

}  // namespace perfbench
