#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/metrics.h"
#include "common/rng.h"
#include "embedding/ngram_init.h"
#include "graph/builder.h"
#include "graph/sampler.h"
#include "graph/store.h"
#include "tensor/arena.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Registry counters and histograms the per-layer metrics are derived from.
const char* const kCounters[] = {
    "threadpool.parallel_for",
    "threadpool.inline_for",
    "graph.shard.fetches",
    "graph.shard.evictions",
    "graph.shard.hits",
    "train.pipeline.stalls",
    "train.pipeline.consumed",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.rejected.queue_full",
    "serve.rejected.schema",
    "serve.rejected.deadline",
    "serve.rejected.shed",
    "serve.rejected.shutdown",
};
const char* const kHistograms[] = {"gemm.flops", "serve.batch_size"};

// NeighborSampler::Sample batches timed by the graph probe.
constexpr int kProbeBatches = 16;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

RegistryDelta::RegistryDelta() {
  auto& registry = grimp::MetricsRegistry::Global();
  for (const char* name : kCounters) {
    counters_[name] = registry.GetCounter(name).value();
  }
  for (const char* name : kHistograms) {
    sums_[name] = registry.GetHistogram(name).sum();
    counts_[name] = registry.GetHistogram(name).count();
  }
}

int64_t RegistryDelta::Counter(const std::string& name) const {
  return grimp::MetricsRegistry::Global().GetCounter(name).value() -
         counters_.at(name);
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  return grimp::MetricsRegistry::Global().GetHistogram(name).sum() -
         sums_.at(name);
}

int64_t RegistryDelta::HistogramCount(const std::string& name) const {
  return grimp::MetricsRegistry::Global().GetHistogram(name).count() -
         counts_.at(name);
}

grimp::GrimpOptions PinnedOptions(int threads, int epochs) {
  grimp::GrimpOptions options;
  options.seed = kModelSeed;
  options.num_threads = threads;
  options.max_epochs = epochs;
  options.patience = epochs;
  options.train.pipeline_depth = 0;
  return options;
}

void EpochLog::Attach(grimp::GrimpOptions* options) {
  options->callbacks.on_epoch_end = [this](const grimp::EpochStats& stats) {
    (stats.epoch == 0 ? first : rest).push_back(stats.seconds);
    const double end = Now();
    Tracer::Global().Add("core.epoch", end - stats.seconds, end);
    return true;
  };
}

void Score::Add(const grimp::Table& imputed, int64_t row,
                const grimp::Table& truth, int64_t truth_row, int col,
                const std::vector<double>& stds) {
  // A cell left missing scores as wrong (and as one standard deviation).
  AddString(imputed.IsMissing(row, col) ? std::string()
                                        : imputed.column(col).StringAt(row),
            truth, truth_row, col, stds);
}

void Score::AddString(const std::string& value, const grimp::Table& truth,
                      int64_t truth_row, int col,
                      const std::vector<double>& stds) {
  if (truth.column(col).is_categorical()) {
    ++cat_cells;
    if (value == truth.column(col).StringAt(truth_row)) ++cat_correct;
    return;
  }
  ++num_cells;
  const double want = truth.column(col).NumAt(truth_row);
  // An unparseable or missing value costs a full standard deviation.
  char* end = nullptr;
  const double got = std::strtod(value.c_str(), &end);
  const double err = (end == value.c_str()) ? stds[static_cast<size_t>(col)]
                                            : got - want;
  const double z = err / stds[static_cast<size_t>(col)];
  sq_norm += z * z;
}

double Score::Accuracy() const {
  return Ratio(static_cast<double>(cat_correct), static_cast<double>(cat_cells));
}

double Score::Rmse() const {
  return std::sqrt(Ratio(sq_norm, static_cast<double>(num_cells)));
}

std::vector<double> ColumnStds(const grimp::Table& truth) {
  std::vector<double> stds(static_cast<size_t>(truth.num_cols()), 1.0);
  for (int c = 0; c < truth.num_cols(); ++c) {
    if (truth.column(c).is_categorical()) continue;
    double sum = 0.0;
    double sq = 0.0;
    int64_t n = 0;
    for (int64_t r = 0; r < truth.num_rows(); ++r) {
      if (truth.IsMissing(r, c)) continue;
      const double v = truth.column(c).NumAt(r);
      sum += v;
      sq += v * v;
      ++n;
    }
    if (n < 2) continue;
    const double mean = sum / static_cast<double>(n);
    const double var = sq / static_cast<double>(n) - mean * mean;
    if (var > 1e-12) stds[static_cast<size_t>(c)] = std::sqrt(var);
  }
  return stds;
}

uint64_t TableFingerprint(const grimp::Table& table) {
  uint64_t h = 1469598103934665603ULL;
  auto mix_bytes = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      mix_bytes(table.IsMissing(r, c) ? std::string("\x01")
                                      : table.column(c).StringAt(r));
    }
  }
  return h;
}

void ProbeGraphLayers(const grimp::Table& table, const ProbeConfig& config,
                      uint64_t seed, Report* report) {
  double t0 = Now();
  grimp::Result<grimp::TableGraph> tg = [&] {
    ScopedSpan span("graph.build");
    return grimp::GraphBuilder().Build(table);
  }();
  report->layers.Set("graph.build_s", Now() - t0, "s");
  report->Check(tg.ok(), "probe graph build");
  if (!tg.ok()) return;

  t0 = Now();
  bool init_ok = false;
  {
    ScopedSpan span("embedding.init");
    init_ok = grimp::NgramFeatureInit()
                  .Init(table, *tg, config.dim, Mix(seed))
                  .ok();
  }
  report->layers.Set("embedding.init_s", Now() - t0, "s");
  report->Check(init_ok, "probe feature init");

  std::unique_ptr<grimp::GraphStore> store;
  if (config.sharded) {
    grimp::ShardedGraphStore::Options options;
    options.num_shards = config.num_shards;
    options.max_resident_bytes = config.budget_bytes;
    options.spill_dir = config.spill_dir;
    auto sharded = grimp::ShardedGraphStore::Create(tg->graph, options);
    report->Check(sharded.ok(), "probe sharded store");
    if (!sharded.ok()) return;
    store = std::move(*sharded);
    // Every shard's first Acquire is a cold load from its spill file.
    std::vector<double> load_ms;
    for (int s = 0; s < store->num_shards(); ++s) {
      ScopedSpan span("graph.shard_load");
      const double a = Now();
      grimp::ShardScope scope = store->Acquire(s);
      load_ms.push_back((Now() - a) * 1e3);
    }
    report->layers.Set("graph.shard_load_ms", Median(load_ms), "ms");
  } else {
    store = std::make_unique<grimp::InMemoryGraphStore>(
        static_cast<const grimp::HeteroGraph*>(&tg->graph));
  }

  grimp::NeighborSampler sampler(store.get(), config.fanouts);
  grimp::Rng rng(Mix(seed + 1));
  grimp::SampledSubgraph sub;
  std::vector<double> sample_ms;
  const int64_t rows = table.num_rows();
  for (int b = 0; b < kProbeBatches; ++b) {
    // A contiguous run of RID nodes, like a trainer minibatch.
    std::vector<int32_t> seeds;
    const int64_t begin = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(std::max<int64_t>(1, rows))));
    for (int64_t i = 0; i < std::min<int64_t>(config.batch_size, rows); ++i) {
      seeds.push_back(
          static_cast<int32_t>(tg->rid_nodes[static_cast<size_t>((begin + i) % rows)]));
    }
    ScopedSpan span("graph.sample");
    const double a = Now();
    sampler.Sample(seeds, &rng, &sub);
    sample_ms.push_back((Now() - a) * 1e3);
  }
  report->layers.Set("graph.sample_ms", Median(sample_ms), "ms");
}

void RecordRegistryLayers(const RegistryDelta& delta, Report* report) {
  Metrics& m = report->layers;
  m.Set("tensor.gemm_flops", delta.HistogramSum("gemm.flops"), "count");
  const double parallel =
      static_cast<double>(delta.Counter("threadpool.parallel_for"));
  const double inline_for =
      static_cast<double>(delta.Counter("threadpool.inline_for"));
  m.Set("common.pool_parallel_frac", Ratio(parallel, parallel + inline_for),
        "fraction");
  m.Set("tensor.arena_high_water_mb",
        static_cast<double>(grimp::TensorArena::Global().high_water_bytes()) /
            (1024.0 * 1024.0),
        "MB");
  const double fetches = static_cast<double>(delta.Counter("graph.shard.fetches"));
  const double hits = static_cast<double>(delta.Counter("graph.shard.hits"));
  m.Set("graph.shard_fetches", fetches, "count");
  m.Set("graph.shard_evictions",
        static_cast<double>(delta.Counter("graph.shard.evictions")), "count");
  m.Set("graph.shard_hit_frac", Ratio(hits, hits + fetches), "fraction");
  m.Set("core.pipeline_stall_frac",
        Ratio(static_cast<double>(delta.Counter("train.pipeline.stalls")),
              static_cast<double>(delta.Counter("train.pipeline.consumed"))),
        "fraction");
}

bool MeasureSetup(int times, const std::function<bool()>& setup,
                  Report* report) {
  std::vector<double> seconds;
  bool ok = true;
  for (int i = 0; i < times; ++i) {
    const double t0 = Now();
    const bool this_ok = setup();
    seconds.push_back(Now() - t0);
    report->Check(this_ok, "setup");
    ok = ok && this_ok;
  }
  report->e2e.Set("setup_s", Median(seconds), "s");
  return ok;
}

void RecordTraceSummary(double untraced_unit_s, double traced_unit_s,
                        double traced_start, double traced_wall_s,
                        Report* report) {
  const auto self = Tracer::Global().SelfSecondsByLayer(traced_start);
  double total = 0.0;
  for (const char* layer :
       {"bench", "core", "embedding", "graph", "net", "serve", "stream"}) {
    auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    total += s;
    report->layers.Set(std::string(layer) + ".self_s", s, "s");
  }
  for (const auto& [layer, s] : self) {
    if (!report->layers.Has(layer + ".self_s")) {
      std::fprintf(stderr, "perfbench: span layer '%s' is not reported\n",
                   layer.c_str());
      std::abort();
    }
  }
  report->layers.Set("trace.coverage", Ratio(total, traced_wall_s),
                     "fraction");
  report->layers.Set("trace.overhead_frac",
                     Ratio(traced_unit_s - untraced_unit_s, untraced_unit_s),
                     "fraction");
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"core.epoch_s", "s"},
      {"core.first_epoch_s", "s"},
      {"graph.build_s", "s"},
      {"embedding.init_s", "s"},
      {"tensor.gemm_flops", "count"},
      {"common.pool_parallel_frac", "fraction"},
      {"tensor.arena_high_water_mb", "MB"},
      {"graph.shard_fetches", "count"},
      {"graph.shard_evictions", "count"},
      {"graph.shard_hit_frac", "fraction"},
      {"graph.shard_load_ms", "ms"},
      {"graph.sample_ms", "ms"},
      {"core.pipeline_stall_frac", "fraction"},
      {"core.fit_s", "s"},
      {"core.transform_s", "s"},
      {"serve.handle_us_p50", "us"},
      {"serve.handle_us_p99", "us"},
      {"net.overhead_us", "us"},
      {"serve.cache_hit_frac", "fraction"},
      {"serve.batch_size_mean", "count"},
      {"core.transform_us_per_row", "us"},
      {"serve.rejected", "count"},
      {"stream.ingest_ms", "ms"},
      {"stream.impute_window_ms", "ms"},
      {"stream.fine_tune_s", "s"},
      {"stream.edges_per_batch", "count"},
      {"stream.freshness_p99_ms", "ms"},
      {"bench.gen_late_p99_ms", "ms"},
      {"bench.self_s", "s"},
      {"core.self_s", "s"},
      {"embedding.self_s", "s"},
      {"graph.self_s", "s"},
      {"net.self_s", "s"},
      {"serve.self_s", "s"},
      {"stream.self_s", "s"},
      {"trace.coverage", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  return kUnits;
}

}  // namespace perfbench
