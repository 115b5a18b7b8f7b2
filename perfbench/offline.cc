// offline_full and offline_sharded: dirty table in, imputed table out.
//
// offline_full is the paper's transductive GRIMP (GrimpImputer, full-graph
// training, attention heads, n-gram features) on the adult replica; tensor,
// gnn and the trainer do nearly all the work. offline_sharded fits a
// GrimpEngine in sampled mode over a ShardedGraphStore whose resident budget
// is a fraction of the graph, then imputes a fixed held-out slice with
// TransformMany; the store, sampler and batch pipeline dominate.

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "data/datasets.h"
#include "data/temporal.h"
#include "table/corruption.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kMissingFraction = 0.2;
constexpr int kMinReps = 3;

// offline_full: the adult replica (3016 rows, 9 categorical + 5 numerical)
// on a 2-thread pool.
constexpr int kFullThreads = 2;
constexpr int kFullEpochs = 6;

// offline_sharded: the scale replica cut to kShardRows training rows plus a
// kHeldOutRows slice, 8 shards under a budget of about a quarter of the
// adjacency, pipeline depth 2 on a 2-thread pool.
constexpr int kShardThreads = 2;
constexpr int kShardEpochs = 6;
constexpr int64_t kShardRows = 60000;
constexpr int64_t kHeldOutRows = 6000;
constexpr int kNumShards = 8;
constexpr int64_t kShardBudgetBytes = 2ll << 20;
constexpr int kPipelineDepth = 2;
constexpr int kBatchSize = 512;
constexpr int64_t kSamplesPerTask = 1024;
const std::vector<int> kFanouts = {5, 5};

struct Rep {
  double seconds = 0.0;
  double fit_seconds = 0.0;
  double transform_seconds = 0.0;
};

// Shared end-to-end metrics of the two offline workloads.
void SetOfflineMetrics(const std::vector<Rep>& reps, const EpochLog& epochs,
                       int64_t rows, int64_t missing_cells,
                       const Score& score, Report* report) {
  std::vector<double> seconds;
  for (const Rep& r : reps) seconds.push_back(r.seconds);
  const double impute_s = Median(seconds);
  std::vector<double> epoch_ms;
  for (double s : epochs.rest) epoch_ms.push_back(s * 1e3);
  Metrics& m = report->e2e;
  m.Set("impute_s", impute_s, "s");
  m.Set("rows_per_s", static_cast<double>(rows) / impute_s, "1/s");
  m.Set("req_per_s", static_cast<double>(missing_cells) / impute_s, "1/s");
  m.Set("p50_ms", NearestRank(epoch_ms, 50.0), "ms");
  m.Set("p95_ms", NearestRank(epoch_ms, 95.0), "ms");
  m.Set("accuracy", score.Accuracy(), "fraction");
  m.Set("rmse", score.Rmse(), "sd");
}

void SetOfflineLayers(const std::vector<Rep>& reps, const EpochLog& epochs,
                      Report* report) {
  std::vector<double> fit;
  std::vector<double> transform;
  for (const Rep& r : reps) {
    fit.push_back(r.fit_seconds);
    transform.push_back(r.transform_seconds);
  }
  Metrics& m = report->layers;
  m.Set("core.epoch_s", Median(epochs.rest), "s");
  m.Set("core.first_epoch_s", Median(epochs.first), "s");
  m.Set("core.fit_s", Median(fit), "s");
  m.Set("core.transform_s", Median(transform), "s");
}

// Times one set-up into *seconds and counts it as a check. The offline
// set-ups are short (adult: ~15 ms), and a short span of the shared host
// can run at half speed, so each rep repeats the set-up: setup_s is then
// the median over the whole run, like the reps'.
bool TimedSetup(const std::function<bool()>& setup,
                std::vector<double>* seconds, Report* report) {
  const double t0 = Now();
  const bool ok = setup();
  seconds->push_back(Now() - t0);
  report->Check(ok, "setup");
  return ok;
}

// Runs `rep` until `seconds` have passed (and at least kMinReps times).
std::vector<Rep> Repeat(double seconds, const std::function<Rep()>& rep) {
  std::vector<Rep> reps;
  const double end = Now() + seconds;
  while (static_cast<int>(reps.size()) < kMinReps || Now() < end) {
    reps.push_back(rep());
  }
  return reps;
}

// Untraced measurement, or in trace mode an untraced and a traced half of
// the same length. Returns the reps whose metrics the run reports.
std::vector<Rep> MeasureOffline(const RunArgs& args,
                                const std::function<Rep()>& rep,
                                const std::function<void()>& probe,
                                Report* report) {
  if (!args.trace) return Repeat(args.seconds, rep);
  const std::vector<Rep> untraced = Repeat(args.seconds / 2, rep);
  Tracer::Global().Enable(args.workload + "-" + std::to_string(args.seed));
  probe();
  const RegistryDelta delta;
  const double start = Now();
  const std::vector<Rep> traced = Repeat(args.seconds / 2, rep);
  const double wall = Now() - start;
  RecordRegistryLayers(delta, report);
  auto median_seconds = [](const std::vector<Rep>& reps) {
    std::vector<double> s;
    for (const Rep& r : reps) s.push_back(r.seconds);
    return Median(s);
  };
  RecordTraceSummary(median_seconds(untraced), median_seconds(traced), start,
                     wall, report);
  return traced;
}

void ScoreCorrupted(const grimp::Table& imputed,
                    const grimp::CorruptedTable& corrupted,
                    const grimp::Table& clean, Score* score) {
  const std::vector<double> stds = ColumnStds(clean);
  for (const grimp::CellRef& cell : corrupted.missing_cells) {
    score->Add(imputed, cell.row, clean, cell.row, cell.col, stds);
  }
}

// Copies rows [begin, end) of `table` into a fresh table.
grimp::Table Slice(const grimp::Table& table, int64_t begin, int64_t end) {
  grimp::Table out(table.schema());
  for (int64_t r = begin; r < end; ++r) {
    if (!out.AppendRow(grimp::RowStrings(table, r)).ok()) std::abort();
  }
  return out;
}

}  // namespace

void RunOfflineFull(const RunArgs& args, Report* report) {
  grimp::ThreadPool::SetGlobalThreads(kFullThreads);
  report->context["pool_threads"] = std::to_string(kFullThreads);
  report->context["pipeline_depth"] = "0";
  report->context["scheduler_workers"] = "0";
  report->context["threads_total"] = std::to_string(kFullThreads);
  report->context["connections"] = "0";

  grimp::Table clean;
  grimp::CorruptedTable corrupted;
  std::vector<double> setup_s;
  auto setup = [&] {
    ScopedSpan span("bench.setup");
    auto table = grimp::GenerateDatasetByName("adult", kReplicaSeed);
    if (!table.ok()) return false;
    clean = std::move(*table);
    corrupted = grimp::InjectMcar(clean, kMissingFraction, Mix(args.seed));
    return true;
  };
  if (!TimedSetup(setup, &setup_s, report)) return;

  EpochLog epochs;
  Score score;
  uint64_t expected = 0;
  bool first = true;
  auto rep = [&]() {
    TimedSetup(setup, &setup_s, report);
    grimp::GrimpOptions options = PinnedOptions(kFullThreads,
                                                kFullEpochs);
    epochs.Attach(&options);
    grimp::GrimpImputer imputer(options);
    Rep r;
    const double t0 = Now();
    grimp::Result<grimp::Table> imputed = [&] {
      ScopedSpan span("core.impute");
      return imputer.Impute(corrupted.dirty);
    }();
    r.seconds = Now() - t0;
    r.fit_seconds = imputer.summary().train_seconds;
    report->Check(imputed.ok(), "GrimpImputer::Impute");
    if (!imputed.ok()) return r;
    report->Check(imputer.summary().epochs_run == kFullEpochs,
                  "fixed epoch count");
    ScopedSpan span("bench.score");
    const uint64_t fp = TableFingerprint(*imputed);
    if (first) {
      expected = fp;
      ScoreCorrupted(*imputed, corrupted, clean, &score);
      first = false;
    }
    report->Check(fp == expected, "repeated imputation is identical");
    return r;
  };
  auto probe = [&] {
    ProbeConfig config;
    ProbeGraphLayers(corrupted.dirty, config, args.seed, report);
  };
  const std::vector<Rep> reps = MeasureOffline(args, rep, probe, report);

  report->e2e.Set("setup_s", Median(setup_s), "s");
  SetOfflineMetrics(reps, epochs, clean.num_rows(),
                    static_cast<int64_t>(corrupted.missing_cells.size()),
                    score, report);
  SetOfflineLayers(reps, epochs, report);
}

void RunOfflineSharded(const RunArgs& args, Report* report) {
  grimp::ThreadPool::SetGlobalThreads(kShardThreads);
  report->context["pool_threads"] = std::to_string(kShardThreads);
  report->context["pipeline_depth"] = std::to_string(kPipelineDepth);
  report->context["scheduler_workers"] = "0";
  // Main thread + one pool worker + up to kPipelineDepth producers.
  report->context["threads_total"] =
      std::to_string(kShardThreads + kPipelineDepth);
  report->context["connections"] = "0";
  report->context["shard_budget_bytes"] = std::to_string(kShardBudgetBytes);

  grimp::Table train_dirty;
  grimp::Table held_clean;
  grimp::CorruptedTable held;
  std::vector<double> setup_s;
  auto setup = [&] {
    ScopedSpan span("bench.setup");
    auto table = grimp::GenerateDatasetByName("scale", kReplicaSeed,
                                              kShardRows + kHeldOutRows);
    if (!table.ok()) return false;
    train_dirty = grimp::InjectMcar(Slice(*table, 0, kShardRows),
                                    kMissingFraction, Mix(args.seed))
                      .dirty;
    held_clean = Slice(*table, kShardRows, kShardRows + kHeldOutRows);
    held = grimp::InjectMcar(held_clean, kMissingFraction,
                             Mix(args.seed + 1));
    return true;
  };
  if (!TimedSetup(setup, &setup_s, report)) return;

  const std::string spill_dir = args.work_dir + "/spill";
  EpochLog epochs;
  Score score;
  uint64_t expected = 0;
  bool first = true;
  auto rep = [&]() {
    TimedSetup(setup, &setup_s, report);
    std::filesystem::create_directories(spill_dir);
    grimp::GrimpOptions options = PinnedOptions(kShardThreads,
                                                kShardEpochs);
    options.validation_fraction = 0.0;
    options.max_samples_per_task = kSamplesPerTask;
    options.train.mode = grimp::TrainMode::kSampled;
    options.train.batch_size = kBatchSize;
    options.train.fanouts = kFanouts;
    options.train.pipeline_depth = kPipelineDepth;
    options.graph.shard_mode = grimp::ShardMode::kSharded;
    options.graph.num_shards = kNumShards;
    options.graph.max_resident_bytes = kShardBudgetBytes;
    options.graph.spill_dir = spill_dir;
    epochs.Attach(&options);
    Rep r;
    grimp::Table window = held.dirty;
    {
      grimp::GrimpEngine engine(options);
      const double t0 = Now();
      grimp::Status fit = [&] {
        ScopedSpan span("core.fit");
        return engine.Fit(train_dirty);
      }();
      const double t1 = Now();
      grimp::Table* tables[] = {&window};
      grimp::Status transform = [&] {
        ScopedSpan span("core.transform");
        return engine.TransformMany(tables);
      }();
      const double t2 = Now();
      r = Rep{t2 - t0, t1 - t0, t2 - t1};
      report->Check(fit.ok(), "GrimpEngine::Fit (sharded)");
      report->Check(transform.ok(), "GrimpEngine::TransformMany");
      report->Check(engine.summary().epochs_run == kShardEpochs,
                    "fixed epoch count");
    }
    std::filesystem::remove_all(spill_dir);
    ScopedSpan span("bench.score");
    const uint64_t fp = TableFingerprint(window);
    if (first) {
      expected = fp;
      ScoreCorrupted(window, held, held_clean, &score);
      first = false;
    }
    report->Check(fp == expected, "repeated imputation is identical");
    return r;
  };
  auto probe = [&] {
    ProbeConfig config;
    config.sharded = true;
    config.num_shards = kNumShards;
    config.budget_bytes = kShardBudgetBytes;
    config.spill_dir = spill_dir + "-probe";
    config.fanouts = kFanouts;
    config.batch_size = kBatchSize;
    std::filesystem::create_directories(config.spill_dir);
    ProbeGraphLayers(train_dirty, config, args.seed, report);
    std::filesystem::remove_all(config.spill_dir);
  };
  const std::vector<Rep> reps = MeasureOffline(args, rep, probe, report);

  report->e2e.Set("setup_s", Median(setup_s), "s");
  SetOfflineMetrics(reps, epochs, kShardRows + kHeldOutRows,
                    static_cast<int64_t>(held.missing_cells.size()), score,
                    report);
  SetOfflineLayers(reps, epochs, report);
}

}  // namespace perfbench
